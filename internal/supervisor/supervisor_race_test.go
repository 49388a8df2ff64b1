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
// quarantine drains sibling CPUs mid-invocation before it audits
// (held-object counts, allocator consistency), so every retained audit is
// clean, and that generation swaps never hand a worker a torn handle. Every outcome must be one of:
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
	sock := kernel.NewObject(nil)
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

	// Each worker stops once the extension has served it iters runs:
	// siblings fall back while one of them reloads, so a count of attempts
	// would let cpu 0 finish before its eighth park.
	const workers = 4
	const iters = 150
	deadline := time.Now().Add(60 * time.Second)
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
			for i := 0; i < iters; {
				if time.Now().After(deadline) {
					t.Errorf("cpu %d served %d of %d runs before the deadline", cpu, i, iters)
					return
				}
				res, err := sup.Run(cpu, sockEvent{sock}, ctx)
				switch {
				case err == nil && res.Cancelled != kflex.CancelNone:
					// Quantum-cancelled run: the expected "service".
					i++
				case errors.Is(err, kflex.ErrFallback):
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
	if sup.Stats().Reloads == 0 {
		t.Fatalf("no reloads occurred; trace = %+v", sup.Trace())
	}
	if len(sup.Audits()) == 0 {
		t.Fatal("no quarantine audits ran")
	}
	for i, a := range sup.Audits() {
		// Every quarantine drained its siblings first, so a held reference
		// here would be a leak, not an invocation still unwinding.
		if !a.Clean {
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
	var served [cpus]atomic.Uint64
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
}

// TestConcurrentReloadDoesNotStallSiblings pins the locking rule: a reload
// runs Runtime.Load and Init with the supervisor's mutex released. While
// cpu 0's Run is inside a parked Init, cpu 1 must get its fallback answer and
// State must answer — and having arrived with the reload due, cpu 1 must not
// start a second one.
func TestConcurrentReloadDoesNotStallSiblings(t *testing.T) {
	var inits atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(), Spec: trivialSpec(), NumCPUs: 2,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			if inits.Add(1) == 2 { // generation 1, first attempt
				entered <- struct{}{}
				<-release
			}
			return supervisor.InitReport{}, nil
		},
		Tuning: supervisor.Tuning{BackoffBase: time.Microsecond, BackoffMax: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	if !sup.Quarantine("operator") {
		t.Fatal("quarantine refused")
	}
	time.Sleep(time.Millisecond) // the 1 µs backoff has passed: the reload is due
	ctx := [2][]byte{make([]byte, kflex.HookXDP.CtxSize), make([]byte, kflex.HookXDP.CtxSize)}
	reloaded := make(chan error, 1)
	go func() {
		_, err := sup.Run(0, nil, ctx[0]) // performs the reload, then probes
		reloaded <- err
	}()
	<-entered

	sibling := make(chan error, 1)
	go func() {
		_, err := sup.Run(1, nil, ctx[1])
		if s := sup.State(); s != supervisor.Quarantined {
			err = errors.Join(err, errors.New("state during the reload = "+s.String()))
		}
		sibling <- err
	}()
	select {
	case err := <-sibling:
		var open *supervisor.OpenError
		if !errors.As(err, &open) || open.State != supervisor.Quarantined {
			t.Errorf("sibling Run during the reload = %v, want an OpenError{quarantined} and nothing else", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Error("sibling Run and State blocked behind the reload's Init")
	}
	close(release)
	if err := <-reloaded; err != nil {
		t.Fatalf("reloading Run = %v, want a served probe", err)
	}
	if st := sup.Stats(); st.Reloads != 1 || st.ReloadFailures != 0 || inits.Load() != 2 {
		t.Fatalf("reloads=%d failures=%d inits=%d, want exactly one generation built", st.Reloads, st.ReloadFailures, inits.Load())
	}
}

// TestConcurrentQuarantineDrainsBeforeAudit pins the judging rule: a
// quarantine unloads at once but audits only after in-flight invocations have
// unwound. cpu 1 is parked inside a helper holding a socket reference when
// the operator quarantines; nothing leaked, so the one retained audit must be
// clean and the heap must survive for a warm reload.
func TestConcurrentQuarantineDrainsBeforeAudit(t *testing.T) {
	rt := kflex.NewRuntime()
	parked, release := make(chan struct{}), make(chan struct{})
	var park atomic.Bool
	rt.Kernel().Helpers.MustRegister(&kernel.HelperSpec{
		ID: helperPark, Name: "test_park",
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, _ [5]uint64) (uint64, error) {
			if park.CompareAndSwap(true, false) {
				parked <- struct{}{}
				<-release
			}
			return 0, nil
		},
	})
	spec := trivialSpec()
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
		Mov(insn.R6, insn.R0). // hold the socket across the park
		Call(helperPark).
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Label("nosock").
		Ret(kernel.XDPPass).
		MustAssemble()
	sup, err := supervisor.New(supervisor.Config{
		Runtime: rt, Spec: spec, NumCPUs: 2, WarmReload: true,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			return supervisor.InitReport{FullResync: !g.Warm}, nil
		},
		Tuning: supervisor.Tuning{BackoffBase: time.Microsecond, BackoffMax: time.Microsecond, DrainTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	sock := kernel.NewObject(nil)
	ctx := [2][]byte{make([]byte, kflex.HookXDP.CtxSize), make([]byte, kflex.HookXDP.CtxSize)}

	park.Store(true)
	ran := make(chan error, 1)
	go func() {
		_, err := sup.Run(1, sockEvent{sock}, ctx[1])
		ran <- err
	}()
	<-parked
	if sock.Refs() != 2 {
		t.Fatalf("socket refs = %d with cpu 1 parked, want 2 (the scenario holds none)", sock.Refs())
	}
	quarantined := make(chan bool, 1)
	go func() { quarantined <- sup.Quarantine("operator") }()
	// The generation is out of service at once, before the drain ends.
	for deadline := time.Now().Add(5 * time.Second); sup.State() != supervisor.Quarantined; {
		if time.Now().After(deadline) {
			t.Fatal("operator quarantine did not unpublish while a sibling was in flight")
		}
		time.Sleep(20 * time.Microsecond)
	}
	if n := len(sup.Audits()); n != 0 {
		t.Errorf("%d audits retained while cpu 1 is still executing on the heap, want none yet", n)
	}
	close(release)
	if !<-quarantined {
		t.Fatal("quarantine refused")
	}
	if err := <-ran; err != nil {
		t.Fatalf("parked run = %v, want it to unwind or finish without error", err)
	}
	if audits := sup.Audits(); len(audits) != 1 || !audits[0].Clean {
		t.Fatalf("audits = %+v, want one clean report: nothing leaked", audits)
	}
	if sock.Refs() != 1 {
		t.Fatalf("socket refs = %d after the run, want 1", sock.Refs())
	}
	time.Sleep(time.Millisecond) // past the 1 µs backoff
	if _, err := sup.Run(0, sockEvent{sock}, ctx[0]); err != nil {
		t.Fatalf("probe after the reload: %v", err)
	}
	if st := sup.Stats(); st.Reloads != 1 || st.WarmReloads != 1 || st.LastInit.FullResync {
		t.Fatalf("stats = %+v, want one warm reload: the drained heap audited clean", st)
	}
	if sock.Refs() != 1 {
		t.Fatalf("socket refs = %d at the end, want 1", sock.Refs())
	}
}
