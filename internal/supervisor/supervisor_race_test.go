package supervisor_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// TestParallelRunDuringLifecycle hammers the supervisor from one goroutine
// per CPU while the extension degrades, quarantines, reloads, and fails
// its probes — the mid-traffic lifecycle. Under -race this proves the
// quarantine audit (held-object counts, allocator consistency) can run
// concurrently with sibling CPUs mid-invocation, and that generation
// swaps never hand a worker a torn handle. Every outcome must be one of:
// a cancelled run (the spinning extension's only successful result), a
// fallback refusal while the circuit is open, or a stale-generation
// refusal during a swap.
//
// Every run holds a socket reference while it spins, so the held-count
// gauges are non-zero mid-invocation, and an auditor polls them from its
// own goroutine throughout. The gauges are stored only on change, and one
// already at zero is not stored to again, so the test pins both ends of
// HeldCounts' contract: every eighth run on cpu 0 parks inside a helper,
// reference in hand, until the auditor has polled — which must then see a
// held reference — and once traffic stops every count must read zero.
func TestParallelRunDuringLifecycle(t *testing.T) {
	rt := kflex.NewRuntime()
	holding, polled := make(chan struct{}), make(chan struct{})
	calls := 0 // cpu 0's goroutine only
	rt.Kernel().Helpers.MustRegister(&kernel.HelperSpec{
		ID: helperPark, Name: "test_park",
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, _ [5]uint64) (uint64, error) {
			if hc.CPU == 0 {
				if calls++; calls%8 == 0 {
					holding <- struct{}{}
					<-polled
				}
			}
			return 0, nil
		},
	})
	var extsMu sync.Mutex
	var exts []*kflex.Extension // every generation loaded so far
	heldRefs := func() (refs, locks int) {
		extsMu.Lock()
		defer extsMu.Unlock()
		for _, ext := range exts {
			r, l := ext.AuditHeld()
			refs, locks = refs+r, locks+l
		}
		return refs, locks
	}
	spec := spinningSpec()
	spec.Insns = asm.New().
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "nosock").
		Mov(insn.R6, insn.R0). // hold the socket
		Call(helperPark).
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R7, insn.R0).
		Label("loop").
		Load(insn.R2, insn.R7, 8, 8).
		Ja("loop").
		Label("nosock").
		Ret(0).
		MustAssemble()
	sock := kernel.NewObject("sock", nil)
	sup, err := supervisor.New(supervisor.Config{
		Runtime: rt,
		Spec:    spec,
		NumCPUs: 4,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			extsMu.Lock()
			exts = append(exts, g.Ext)
			extsMu.Unlock()
			return supervisor.InitReport{}, nil
		},
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			ProbeRuns:   2,
			JitterSeed:  3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	const workers = 4
	const iters = 150
	var wg sync.WaitGroup
	stopAudit := make(chan struct{})
	auditDone := make(chan struct{})
	sightings := 0
	go func() {
		defer close(auditDone)
		for {
			parked := false
			select {
			case <-stopAudit:
				return
			case <-holding:
				parked = true
			default:
			}
			refs, locks := heldRefs()
			if refs < 0 || refs > workers || locks != 0 {
				t.Errorf("auditor read refs=%d locks=%d, want 0..%d refs and no locks", refs, locks, workers)
			}
			if parked {
				if refs == 0 {
					t.Error("auditor read no held reference while cpu 0 was parked holding one")
				}
				sightings++
				polled <- struct{}{}
			}
		}
	}()
	for cpu := 0; cpu < workers; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := make([]byte, kflex.HookXDP.CtxSize)
			for i := 0; i < iters; i++ {
				res, err := sup.Run(cpu, sockEvent{sock}, ctx)
				switch {
				case err == nil && res.Cancelled != kflex.CancelNone:
					// Quantum-cancelled run: the expected "service".
				case errors.Is(err, kflex.ErrFallback) || errors.Is(err, kflex.ErrUnloaded):
					// Circuit open or mid-swap refusal: the caller's
					// user-space fallback path. Yield so the backoff
					// clock can make progress.
					time.Sleep(200 * time.Microsecond)
				case err != nil:
					t.Errorf("cpu %d iter %d: unexpected error %v", cpu, i, err)
					return
				default:
					t.Errorf("cpu %d iter %d: spinning run succeeded uncancelled: %+v", cpu, i, res)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	close(stopAudit)
	<-auditDone
	if sightings == 0 {
		t.Error("cpu 0 never parked: the auditor's sighting was not exercised")
	}
	if refs, locks := heldRefs(); refs != 0 || locks != 0 {
		t.Errorf("held refs=%d locks=%d with no run in flight, want 0/0", refs, locks)
	}
	if sock.Refs() != 1 {
		t.Errorf("socket refs = %d after the traffic, want 1: an unwinding leaked", sock.Refs())
	}

	// The lifecycle must have actually cycled under load: at least one
	// reload (quarantine → probe), with a coherent trace and audits.
	if sup.Reloads() == 0 {
		t.Fatalf("no reloads occurred; trace = %+v", sup.Trace())
	}
	if len(sup.Audits()) == 0 {
		t.Fatal("no quarantine audits ran")
	}
	for i, a := range sup.Audits() {
		// A sibling still unwinding when the audit reads its gauge shows
		// as a held reference — in flight, not leaked (the end-of-traffic
		// checks above) — so only the heap's own invariants must hold.
		if a.ConsistencyErr != "" || a.HeldLocks != 0 || a.HeldRefs >= workers ||
			a.PopulatedPages != a.MappedPages || a.PopulatedPages != a.ExpectedPages {
			t.Fatalf("audit %d reported corruption: %+v", i, a)
		}
	}
}

// sockEvent resolves every UDP lookup to its socket, taking a reference.
type sockEvent struct{ sock *kernel.Object }

func (e sockEvent) LookupUDP([]byte) *kernel.Object { return e.sock.Get() }

// slotProbe is the event of TestConcurrentAdmitDrain's extension: the
// extension's one helper writes the physical handle slot it ran on.
type slotProbe struct {
	slot   int
	frozen bool // the invocation ran while a migration held the heap frozen
}

// Test helper IDs (registered per Runtime by the test that uses them).
const (
	helperReportSlot int32 = 0x7001
	helperPark       int32 = 0x7002
)

// TestConcurrentAdmitDrain tests the pairing that replaced "in-flight is
// raised under the mutex": a run raises its CPU's counter and then loads
// the published generation; a migration unpublishes and then reads the
// counters. One runner per cpu spins on Run while this goroutine ping-pongs
// cpu 0 between two slots and interleaves operator quarantines (reloaded by
// the runners' own traffic).
func TestConcurrentAdmitDrain(t *testing.T) {
	// frozen is true while a migration's adoption runs: after the drain,
	// before the publish. The drain's whole job is that nothing executes
	// in that window.
	var frozen atomic.Bool
	rt := kflex.NewRuntime()
	rt.Kernel().Helpers.MustRegister(&kernel.HelperSpec{
		ID: helperReportSlot, Name: "test_report_slot",
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, _ [5]uint64) (uint64, error) {
			p := hc.Event.(*slotProbe)
			p.slot, p.frozen = hc.CPU, frozen.Load()
			return 0, nil
		},
	})
	spec := trivialSpec()
	spec.Insns = asm.New().Call(helperReportSlot).Ret(kernel.XDPPass).MustAssemble()
	const cpus, slotA, slotB = 2, 0, 5
	sup, err := supervisor.New(supervisor.Config{
		Runtime: rt, Spec: spec, NumCPUs: cpus,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			if g.Warm {
				frozen.Store(true)
				time.Sleep(100 * time.Microsecond)
				frozen.Store(false)
			}
			return supervisor.InitReport{}, nil
		},
		Tuning: supervisor.Tuning{
			BackoffBase: 50 * time.Microsecond, BackoffMax: 100 * time.Microsecond,
			ProbeRuns: 2, DrainTimeout: 10 * time.Second, // generous: -race slows settlement
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	// ops is odd while this goroutine is inside Migrate and even between
	// calls; home is the slot cpu 0 is committed to, stored before ops turns
	// even. A run that saw the same even value on both sides overlapped no
	// migration, so it must have executed on home: the retired generation's
	// handle lives on the other slot.
	var ops, home atomic.Int64
	home.Store(slotA)
	var served, insns [cpus]atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for cpu := 0; cpu < cpus; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ctx := make([]byte, kflex.HookXDP.CtxSize)
			var probe slotProbe
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := ops.Load()
				res, err := sup.Run(cpu, &probe, ctx)
				insns[cpu].Add(res.Stats.Insns)
				switch {
				case err == nil && res.Cancelled == kflex.CancelNone && res.Ret == kernel.XDPPass:
					served[cpu].Add(1)
					if probe.frozen {
						t.Errorf("cpu %d executed between a migration's drain and its publish", cpu)
						return
					}
					want := cpu
					if cpu == 0 {
						want = int(home.Load())
					}
					if before&1 == 0 && ops.Load() == before && probe.slot != want {
						t.Errorf("cpu %d ran on slot %d after a migration committed it to slot %d", cpu, probe.slot, want)
						return
					}
				case errors.Is(err, kflex.ErrFallback):
					// Migrating, quarantined, or probe quota taken.
				default:
					t.Errorf("cpu %d: outcome (%+v, %v) is neither served nor a fallback", cpu, res, err)
					return
				}
			}
		}(cpu)
	}
	// settle waits for every runner to be served n more times: traffic is
	// on the extension, and runs land wholly between two operator actions.
	settle := func(n uint64) {
		t.Helper()
		var from [cpus]uint64
		for cpu := range from {
			from[cpu] = served[cpu].Load()
		}
		deadline := time.Now().Add(20 * time.Second)
		for cpu := 0; cpu < cpus; cpu++ {
			for served[cpu].Load() < from[cpu]+n {
				if t.Failed() || time.Now().After(deadline) {
					t.Fatalf("cpu %d not served %d more runs (state %v)", cpu, n, sup.State())
				}
				time.Sleep(20 * time.Microsecond)
			}
		}
	}
	const rounds = 24
	quarantines := 0
	for i := 0; i < rounds; i++ {
		settle(20)
		to := slotB
		if home.Load() == slotB {
			to = slotA
		}
		ops.Add(1)
		rep, err := sup.Migrate(0, to)
		if err != nil {
			t.Fatalf("migration %d: %v (report %+v)", i, err, rep)
		}
		home.Store(int64(to))
		ops.Add(1)
		if i%4 == 3 {
			settle(20)
			if !sup.Quarantine("operator") {
				t.Fatalf("quarantine %d refused in state %v", i, sup.State())
			}
			quarantines++
		}
	}
	settle(20)
	close(stop)
	wg.Wait()

	st := sup.Stats()
	if st.Migrations != rounds || st.MigrationFailures != 0 || st.Reloads != uint64(quarantines) {
		t.Fatalf("stats = %+v, want %d migrations, no failed attempt (a drain timeout is one), %d reloads", st, rounds, quarantines)
	}
	if n := sup.InFlight(); n != 0 {
		t.Fatalf("%d invocations still counted in flight on a quiesced supervisor", n)
	}
	for _, l := range sup.Loads() {
		if want := insns[l.CPU].Load(); l.Insns != want {
			t.Fatalf("Loads()[%d] = %d instructions, runners were handed back %d", l.CPU, l.Insns, want)
		}
	}
}
