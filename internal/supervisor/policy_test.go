package supervisor_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// countedSpec calls one helper, then counts ctx.a down to zero (2^64
// iterations for 0: a stall) in a loop the verifier cannot bound, so every
// iteration crosses a terminate probe.
func countedSpec() kflex.Spec {
	prog := asm.New().
		Load(insn.R6, insn.R1, 8, 8).
		Call(kernel.HelperKflexHeapBase).
		Label("loop").
		Add(insn.R6, -1).
		JmpImm(insn.JmpNe, insn.R6, 0, "loop").
		Ret(0).
		MustAssemble()
	return kflex.Spec{
		Name:     "unit-counted",
		Insns:    prog,
		Hook:     kflex.HookBench,
		Mode:     kflex.ModeKFlex,
		HeapSize: 1 << 16,
	}
}

// TestCancelPolicy is the policy table: whatever cancels an invocation, the
// extension is retired at exactly cancellation number max(threshold, 1) —
// the earlier ones reach only their invocation — and the supervisor reacts
// to the retirement, not to the policy that caused it: quarantine, reload,
// probe, back to offloading. CancelNever is never retired.
func TestCancelPolicy(t *testing.T) {
	const stall, bounded = 0, 10
	sources := []struct {
		name   string
		spec   func(*kflex.Spec)
		tuning func(*supervisor.Tuning)
		// cancel makes one invocation that its source cancels.
		cancel func(sup *supervisor.Supervisor, plan *faultinject.Plan, hctx []byte) (kflex.Result, error)
		kind   kflex.CancelKind
	}{
		{
			name: "quantum",
			spec: func(s *kflex.Spec) { s.QuantumInsns = 2000 },
			cancel: func(sup *supervisor.Supervisor, plan *faultinject.Plan, hctx []byte) (kflex.Result, error) {
				return sup.Run(0, nil, hctx)
			},
			kind: kflex.CancelTerminate,
		},
		{
			name: "helper-err",
			cancel: func(sup *supervisor.Supervisor, plan *faultinject.Plan, hctx []byte) (kflex.Result, error) {
				binary.LittleEndian.PutUint64(hctx[8:], bounded)
				plan.Enable()
				defer plan.Disarm()
				return sup.Run(0, nil, hctx)
			},
			kind: kflex.CancelHelper,
		},
		{
			name:   "watchdog",
			tuning: func(tu *supervisor.Tuning) { tu.WatchdogQuantum = 10 * time.Millisecond },
			cancel: func(sup *supervisor.Supervisor, plan *faultinject.Plan, hctx []byte) (kflex.Result, error) {
				return sup.Run(0, nil, hctx)
			},
			kind: kflex.CancelTerminate,
		},
		{
			name: "deadline",
			cancel: func(sup *supervisor.Supervisor, plan *faultinject.Plan, hctx []byte) (kflex.Result, error) {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				defer cancel()
				return sup.RunContext(ctx, 0, nil, hctx)
			},
			kind: kflex.CancelTerminate,
		},
	}
	thresholds := []struct {
		name      string
		threshold uint64
		retiredAt int // 0: never
	}{
		{"0", 0, 1}, {"1", 1, 1}, {"3", 3, 3}, {"never", kflex.CancelNever, 0},
	}
	for _, src := range sources {
		for _, th := range thresholds {
			t.Run(src.name+"/threshold-"+th.name, func(t *testing.T) {
				plan := faultinject.NewPlan(1).SetRate(faultinject.HelperErr, 1)
				spec := countedSpec()
				spec.CancelThreshold, spec.FaultPlan = th.threshold, plan
				if src.spec != nil {
					src.spec(&spec)
				}
				clk := &clock{now: time.Unix(0, 0)}
				tuning := supervisor.Tuning{
					BackoffBase: time.Millisecond,
					BackoffMax:  4 * time.Millisecond,
					ProbeRuns:   2,
					Now:         clk.Now,
				}
				if src.tuning != nil {
					src.tuning(&tuning)
				}
				sup, err := supervisor.New(supervisor.Config{Runtime: kflex.NewRuntime(), Spec: spec, Tuning: tuning})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sup.Close)
				gen0 := sup.Extension()
				healthy := func(when string) {
					t.Helper()
					hctx := make([]byte, kflex.HookBench.CtxSize)
					binary.LittleEndian.PutUint64(hctx[8:], bounded)
					res, err := sup.Run(0, nil, hctx)
					if err != nil || res.Cancelled != kflex.CancelNone || res.Stats.Probes < bounded {
						t.Fatalf("%s: bounded run = (%+v, %v), want served through its probes", when, res, err)
					}
				}

				cancels := th.retiredAt
				if cancels == 0 {
					cancels = 5 // never: well past every finite threshold above
				}
				for n := 1; n <= cancels; n++ {
					hctx := make([]byte, kflex.HookBench.CtxSize)
					binary.LittleEndian.PutUint64(hctx[8:], stall)
					res, err := src.cancel(sup, plan, hctx)
					if err != nil || res.Cancelled != src.kind {
						t.Fatalf("cancellation %d = (%+v, %v), want %v", n, res, err, src.kind)
					}
					if n == th.retiredAt {
						break
					}
					if gen0.Unloaded() || sup.State() != supervisor.Healthy || sup.Stats().Quarantines != 0 {
						t.Fatalf("after cancellation %d of a threshold-%s extension: unloaded=%v state=%v stats=%+v",
							n, th.name, gen0.Unloaded(), sup.State(), sup.Stats())
					}
					healthy(fmt.Sprintf("after cancellation %d, below the threshold", n))
				}
				if th.retiredAt == 0 {
					if len(sup.Trace()) != 0 || sup.Gen() != 0 || gen0.Cancels() != uint64(cancels) {
						t.Fatalf("CancelNever: trace=%v gen=%d cancels=%d", sup.Trace(), sup.Gen(), gen0.Cancels())
					}
					return
				}

				if !gen0.Unloaded() || gen0.Cancels() != uint64(th.retiredAt) {
					t.Fatalf("unloaded=%v after %d cancellations, want retired at exactly %d",
						gen0.Unloaded(), gen0.Cancels(), th.retiredAt)
				}
				if s := sup.State(); s != supervisor.Quarantined {
					t.Fatalf("state after retirement = %v, want quarantined", s)
				}
				clk.Advance(5 * time.Millisecond) // > BackoffMax: the reload is due
				healthy("probe 1")
				healthy("probe 2")
				healthy("back on the extension")
				var edges []string
				for _, tr := range sup.Trace() {
					edges = append(edges, tr.From.String()+">"+tr.To.String())
				}
				want := "[healthy>degraded degraded>quarantined quarantined>probing probing>healthy]"
				if got := fmt.Sprint(edges); got != want {
					t.Fatalf("trace = %s, want %s", got, want)
				}
				if st := sup.Stats(); st.Reloads != 1 || st.Quarantines != 1 || sup.Gen() != 1 || sup.Extension().Unloaded() {
					t.Fatalf("after recovery: stats=%+v gen=%d unloaded=%v", st, sup.Gen(), sup.Extension().Unloaded())
				}
			})
		}
	}
}

// TestWarmReloadRevivesCancelCount: a revived extension starts its
// cancellation count over. With CancelThreshold 2 the extension is retired
// at its second cancellation, warm-reloaded, and then survives one new
// cancellation and is retired at the next — not at the first, as a count
// carried over from before the retirement would make it.
func TestWarmReloadRevivesCancelCount(t *testing.T) {
	spec := countedSpec()
	spec.QuantumInsns, spec.CancelThreshold = 2000, 2
	clk := &clock{now: time.Unix(0, 0)}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(), Spec: spec, WarmReload: true,
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, ProbeRuns: 1, Now: clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	ext := sup.Extension()
	run := func(n uint64) (kflex.Result, error) {
		hctx := make([]byte, kflex.HookBench.CtxSize)
		binary.LittleEndian.PutUint64(hctx[8:], n)
		return sup.Run(0, nil, hctx)
	}
	// stall makes one quantum-cancelled run and reports the state after it.
	stall := func(when string) supervisor.State {
		t.Helper()
		if res, err := run(0); err != nil || res.Cancelled != kflex.CancelTerminate {
			t.Fatalf("%s: stalled run = (%+v, %v), want a terminate cancellation", when, res, err)
		}
		return sup.State()
	}

	if s := stall("cancellation 1"); s != supervisor.Healthy {
		t.Fatalf("state after cancellation 1 = %v, want healthy", s)
	}
	if s := stall("cancellation 2"); s != supervisor.Quarantined || !ext.Unloaded() {
		t.Fatalf("state after cancellation 2 = %v (unloaded=%v), want quarantined", s, ext.Unloaded())
	}
	clk.Advance(5 * time.Millisecond)
	if res, err := run(10); err != nil || res.Cancelled != kflex.CancelNone {
		t.Fatalf("probe after the reload = (%+v, %v)", res, err)
	}
	if st := sup.Stats(); st.WarmReloads != 1 || sup.Extension() != ext || ext.Cancels() != 0 || sup.State() != supervisor.Healthy {
		t.Fatalf("after the reload: stats=%+v same extension=%v cancels=%d state=%v, want one warm reload of the same extension with its count cleared",
			st, sup.Extension() == ext, ext.Cancels(), sup.State())
	}
	if s := stall("cancellation 1 after the revival"); s != supervisor.Healthy || ext.Unloaded() {
		t.Fatalf("state after the revived extension's first cancellation = %v (unloaded=%v), want healthy", s, ext.Unloaded())
	}
	if s := stall("cancellation 2 after the revival"); s != supervisor.Quarantined || !ext.Unloaded() {
		t.Fatalf("state after the revived extension's second cancellation = %v (unloaded=%v), want quarantined", s, ext.Unloaded())
	}
}
