package supervisor_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// trivialSpec returns an extension that serves every run successfully.
func trivialSpec() kflex.Spec {
	return kflex.Spec{
		Name:     "unit-ok",
		Insns:    asm.New().Ret(kernel.XDPPass).MustAssemble(),
		Hook:     kflex.HookXDP,
		Mode:     kflex.ModeKFlex,
		HeapSize: 1 << 16,
	}
}

// spinningSpec returns an extension whose every run is quantum-cancelled:
// with CancelThreshold 1 it is retired deterministically on first use,
// with no fault plan involved.
func spinningSpec() kflex.Spec {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("loop").
		Load(insn.R2, insn.R6, 8, 8).
		Ja("loop").
		MustAssemble()
	return kflex.Spec{
		Name:            "unit-spin",
		Insns:           prog,
		Hook:            kflex.HookXDP,
		Mode:            kflex.ModeKFlex,
		HeapSize:        1 << 16,
		QuantumInsns:    2000,
		CancelThreshold: 1,
	}
}

type clock struct{ now time.Time }

func (c *clock) Now() time.Time          { return c.now }
func (c *clock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenErrorMatchesSentinels(t *testing.T) {
	err := error(&supervisor.OpenError{Ext: "x", State: supervisor.Quarantined})
	if !errors.Is(err, kflex.ErrFallback) {
		t.Error("OpenError does not match ErrFallback")
	}
}

func TestHealthyRun(t *testing.T) {
	inits := 0
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			inits++
			return supervisor.InitReport{ResyncOps: 5}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	if inits != 1 {
		t.Fatalf("Init ran %d times for the initial generation, want 1", inits)
	}
	res, err := sup.Run(0, nil, make([]byte, kflex.HookXDP.CtxSize))
	if err != nil || res.Ret != kernel.XDPPass {
		t.Fatalf("healthy Run = (%v, %v)", res.Ret, err)
	}
	if s := sup.State(); s != supervisor.Healthy {
		t.Fatalf("state = %v, want healthy", s)
	}
	if sup.Gen() != 0 || sup.Stats().Reloads != 0 || len(sup.Trace()) != 0 {
		t.Fatalf("fresh supervisor gen=%d reloads=%d trace=%d", sup.Gen(), sup.Stats().Reloads, len(sup.Trace()))
	}
	st := sup.Stats()
	if st.Reloads != 0 || st.Quarantines != 0 || st.WarmReloads != 0 {
		t.Fatalf("fresh stats = %+v", st)
	}
	if st.LastInit.ResyncOps != 5 {
		t.Fatalf("LastInit not recorded: %+v", st.LastInit)
	}
	if st.ResyncOps != 5 {
		t.Fatalf("ResyncOps = %d, want 5 (accumulated from gen 0's InitReport)", st.ResyncOps)
	}
}

func TestInitErrorPropagates(t *testing.T) {
	_, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			return supervisor.InitReport{}, fmt.Errorf("resync exploded")
		},
	})
	if err == nil {
		t.Fatal("New succeeded despite failing Init")
	}
}

// TestReloadCompileCache checks that a reload with an unchanged spec is
// served from the runtime's compile cache — the verify/instrument/lower
// stages are reused and only a fresh heap is linked — while the Init
// callback (the durable-store replay hook) still runs for the new
// generation. A spec with different program text on the same runtime must
// miss the cache.
func TestReloadCompileCache(t *testing.T) {
	rt := kflex.NewRuntime()
	clk := &clock{now: time.Unix(0, 0)}
	inits := 0
	sup, err := supervisor.New(supervisor.Config{
		Runtime: rt,
		Spec:    spinningSpec(),
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			inits++
			return supervisor.InitReport{}, nil
		},
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	// Generation 0 is the first Load of this spec on the runtime: a miss
	// that populates the cache, with every stage actually executed.
	stages := func(pl kflex.PipelineInfo) map[string]kflex.Stage {
		m := make(map[string]kflex.Stage)
		for _, st := range pl.Stages {
			m[st.Name] = st
		}
		return m
	}
	pl0 := sup.Extension().Pipeline()
	if pl0.CacheHit {
		t.Fatalf("initial generation reported a cache hit: %+v", pl0)
	}
	st0 := stages(pl0)
	for _, name := range []string{"verify", "instrument", "lower"} {
		if st := st0[name]; st.Out == 0 || st.Cached {
			t.Fatalf("initial %s stage = %+v, want executed (not cached)", name, st)
		}
	}

	// Degrade and ride the backoff to a reload.
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	if res, err := sup.Run(0, nil, ctx); err != nil || res.Cancelled != kflex.CancelTerminate {
		t.Fatalf("degrading run = (%+v, %v), want a terminate cancellation", res, err)
	}
	clk.Advance(5 * time.Millisecond)
	if _, err := sup.Run(0, nil, ctx); err != nil {
		t.Fatalf("probe run after reload: %v", err)
	}
	if sup.Gen() != 1 || sup.Stats().Reloads != 1 {
		t.Fatalf("after reload: gen=%d reloads=%d, want 1/1", sup.Gen(), sup.Stats().Reloads)
	}
	if inits != 2 {
		t.Fatalf("Init ran %d times, want 2 (durable replay must run on reload too)", inits)
	}

	// The reloaded generation must be a cache hit: verify/instrument/lower
	// carry the cached artifact sizes, only link actually ran.
	pl1 := sup.Extension().Pipeline()
	if !pl1.CacheHit {
		t.Fatalf("reloaded generation missed the compile cache: %+v", pl1)
	}
	if pl1.SpecHash != pl0.SpecHash {
		t.Fatalf("spec fingerprint changed across reload: %#x -> %#x", pl0.SpecHash, pl1.SpecHash)
	}
	st1 := stages(pl1)
	for _, name := range []string{"verify", "instrument", "lower"} {
		st := st1[name]
		if !st.Cached {
			t.Fatalf("reloaded %s stage = %+v, want cached", name, st)
		}
		if st.Out != st0[name].Out {
			t.Fatalf("cached %s artifact size %d != original %d", name, st.Out, st0[name].Out)
		}
	}
	if st := st1["link"]; st.Cached {
		t.Fatalf("link stage marked cached: %+v — linking must run per generation", st)
	}

	// A different program text on the same runtime is a different
	// fingerprint: fresh supervisor, cache miss.
	other, err := supervisor.New(supervisor.Config{Runtime: rt, Spec: trivialSpec()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	plo := other.Extension().Pipeline()
	if plo.CacheHit {
		t.Fatalf("changed spec hit the cache: %+v", plo)
	}
	if plo.SpecHash == pl1.SpecHash {
		t.Fatal("different program text produced the same spec fingerprint")
	}
}

// TestRequarantineOnProbeFailure walks the unhappy half of the machine: a
// spinning extension degrades on first run, reloads after backoff, fails
// its probe, and re-quarantines at the next backoff tier — repeatedly.
func TestRequarantineOnProbeFailure(t *testing.T) {
	clk := &clock{now: time.Unix(0, 0)}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    spinningSpec(),
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			ProbeRuns:   2,
			JitterSeed:  7,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	ctx := make([]byte, kflex.HookXDP.CtxSize)

	// First run: quantum-cancelled, threshold 1 trips, quarantine.
	res, err := sup.Run(0, nil, ctx)
	if err != nil || res.Cancelled != kflex.CancelTerminate {
		t.Fatalf("first run = (%+v, %v), want a terminate cancellation", res, err)
	}
	if s := sup.State(); s != supervisor.Quarantined {
		t.Fatalf("state after degradation = %v, want quarantined", s)
	}
	if audits := sup.Audits(); len(audits) != 1 || !audits[0].Clean {
		t.Fatalf("quarantine audit = %+v, want one clean report", audits)
	}
	// Circuit open, backoff pending: refusal with the fallback sentinel.
	if _, err := sup.Run(0, nil, ctx); !errors.Is(err, kflex.ErrFallback) {
		t.Fatalf("quarantined Run err = %v, want ErrFallback", err)
	}

	// Each recovery attempt reloads, probes, fails, and re-quarantines.
	for attempt := 1; attempt <= 2; attempt++ {
		clk.Advance(5 * time.Millisecond) // > BackoffMax: reload is due
		res, err := sup.Run(0, nil, ctx)
		if err != nil || res.Cancelled != kflex.CancelTerminate {
			t.Fatalf("probe %d = (%+v, %v), want a terminate cancellation", attempt, res, err)
		}
		if s := sup.State(); s != supervisor.Quarantined {
			t.Fatalf("state after failed probe %d = %v, want quarantined", attempt, s)
		}
		if sup.Stats().Reloads != uint64(attempt) || sup.Gen() != uint64(attempt) {
			t.Fatalf("after probe %d: reloads=%d gen=%d", attempt, sup.Stats().Reloads, sup.Gen())
		}
	}
	// The trace must show escalating backoff tiers on each re-quarantine.
	var probeFails []supervisor.Transition
	for _, tr := range sup.Trace() {
		if tr.From == supervisor.Probing && tr.To == supervisor.Quarantined {
			probeFails = append(probeFails, tr)
		}
	}
	if len(probeFails) != 2 {
		t.Fatalf("probe-failure transitions = %d, want 2: %+v", len(probeFails), sup.Trace())
	}
	if probeFails[1].Tier <= probeFails[0].Tier {
		t.Fatalf("backoff tier did not escalate: %+v", probeFails)
	}
	if audits := sup.Audits(); len(audits) != 3 {
		t.Fatalf("audit reports = %d, want 3 (initial + 2 probe failures)", len(audits))
	}
}

// TestWarmReloadAdoptsHeap forces a quarantine with a clean audit and
// checks the next generation revives the previous extension: the Init
// callback sees Warm=true, the extension and its heap are pointer-identical
// across the reload, and the stats record the warm reload and accumulate
// InitReports.
func TestWarmReloadAdoptsHeap(t *testing.T) {
	clk := &clock{now: time.Unix(0, 0)}
	var warms []bool
	sup, err := supervisor.New(supervisor.Config{
		Runtime:    kflex.NewRuntime(),
		Spec:       trivialSpec(),
		WarmReload: true,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			warms = append(warms, g.Warm)
			if g.Warm {
				return supervisor.InitReport{ResyncOps: 3}, nil
			}
			return supervisor.InitReport{ResyncOps: 10, FullResync: true}, nil
		},
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	ext0 := sup.Extension()
	h0 := ext0.Heap()

	if !sup.Quarantine("maintenance") {
		t.Fatal("Quarantine on a healthy supervisor returned false")
	}
	if sup.Quarantine("again") {
		t.Fatal("Quarantine on a quarantined supervisor returned true")
	}
	if audits := sup.Audits(); len(audits) != 1 || !audits[0].Clean {
		t.Fatalf("audits = %+v, want one clean report", audits)
	}

	clk.Advance(5 * time.Millisecond)
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	if _, err := sup.Run(0, nil, ctx); err != nil {
		t.Fatalf("probe run after warm reload: %v", err)
	}
	if len(warms) != 2 || warms[0] || !warms[1] {
		t.Fatalf("Init warm flags = %v, want [false true]", warms)
	}
	if ext1 := sup.Extension(); ext1 != ext0 || ext1.Heap() != h0 || ext1.Unloaded() {
		t.Fatal("warm reload did not revive the previous generation's extension")
	}
	st := sup.Stats()
	if st.Reloads != 1 || st.WarmReloads != 1 || st.Quarantines != 1 {
		t.Fatalf("stats = %+v, want 1 reload, 1 warm, 1 quarantine", st)
	}
	if st.LastInit.ResyncOps != 3 || st.LastInit.FullResync {
		t.Fatalf("warm LastInit = %+v, want the delta-resync report", st.LastInit)
	}
	if st.ResyncOps != 13 {
		t.Fatalf("ResyncOps = %d, want 13 (10 cold + 3 warm)", st.ResyncOps)
	}
}

// TestColdReloadWithoutWarmOptIn checks the default path is unchanged: no
// WarmReload means a fresh heap every generation.
func TestColdReloadWithoutWarmOptIn(t *testing.T) {
	clk := &clock{now: time.Unix(0, 0)}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	h0 := sup.Extension().Heap()
	sup.Quarantine("maintenance")
	clk.Advance(5 * time.Millisecond)
	if _, err := sup.Run(0, nil, make([]byte, kflex.HookXDP.CtxSize)); err != nil {
		t.Fatal(err)
	}
	if h1 := sup.Extension().Heap(); h1 == h0 {
		t.Fatal("cold reload reused the previous heap")
	}
	if st := sup.Stats(); st.WarmReloads != 0 || st.Reloads != 1 {
		t.Fatalf("stats = %+v, want cold reload only", st)
	}
}

// TestRunCPUOutOfRange: a cpu index outside [0, NumCPUs) is a caller bug
// that must cost only that call. The parent panicked on the handle index
// while holding the supervisor mutex, so a server that recovers per request
// found every later Run, State and Close blocked forever.
func TestRunCPUOutOfRange(t *testing.T) {
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(), Spec: trivialSpec(), NumCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	// try recovers like a per-request server would; after a panic it stops
	// issuing bad calls and goes straight to the liveness probe.
	try := func(cpu int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Run(%d) panicked: %v", cpu, r)
				ok = false
			}
		}()
		_, err := sup.Run(cpu, nil, ctx)
		var re *supervisor.CPURangeError
		if !errors.As(err, &re) || re.CPU != cpu || re.NumCPUs != 2 {
			t.Errorf("Run(%d) = %v, want a CPURangeError naming cpu %d of 2", cpu, err, cpu)
		}
		if errors.Is(err, kflex.ErrFallback) {
			t.Errorf("Run(%d): %v matches ErrFallback; a bad index is not a lifecycle outcome", cpu, err)
		}
		if _, err := sup.RunContext(context.Background(), cpu, nil, ctx); !errors.As(err, &re) {
			t.Errorf("RunContext(%d) = %v, want a CPURangeError", cpu, err)
		}
		return true
	}
	for _, cpu := range []int{2, -1, 1 << 20} {
		if !try(cpu) {
			break
		}
	}
	// The supervisor still answers: nothing was left locked.
	alive := make(chan error, 1)
	go func() {
		if s := sup.State(); s != supervisor.Healthy {
			alive <- fmt.Errorf("state = %v, want healthy", s)
			return
		}
		res, err := sup.Run(0, nil, ctx)
		if err != nil || res.Ret != kernel.XDPPass {
			alive <- fmt.Errorf("Run(0) after the bad index = (%v, %v)", res.Ret, err)
			return
		}
		sup.Close()
		alive <- nil
	}()
	select {
	case err := <-alive:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("State/Run/Close blocked after an out-of-range cpu: the supervisor is wedged")
	}
}
