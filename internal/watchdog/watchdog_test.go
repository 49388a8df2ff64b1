package watchdog

import (
	"sync"
	"testing"
	"time"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/compile/lowertest"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/vm"
)

// loadProgram runs prog through verify, instrument and lower on kernel k and
// loads it, over a fresh heap of heapSize bytes (0: an eBPF-mode program, no
// heap).
func loadProgram(t *testing.T, k *kernel.Kernel, prog []insn.Instruction, heapSize uint64) *vm.Program {
	t.Helper()
	h, lowered := lowertest.Build(t, k, prog, heapSize)
	p, err := vm.New(vm.Options{Hook: kernel.HookBench, Kernel: k, Heap: h, Lowered: lowered})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spinningProgram(t *testing.T) *vm.Program {
	t.Helper()
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("spin").
		Load(insn.R2, insn.R6, 64, 8).
		Ja("spin").
		MustAssemble()
	return loadProgram(t, kernel.New(), prog, 1<<16)
}

// TestWatchdogFiresOnStall: a spinning invocation is cancelled, no sooner
// than a quantum after it started (the watchdog's clock for it starts at
// first sight, which is never before the start) and within quantum +
// 2·interval of it — first sight comes at most one interval late, and the
// check that finds the quantum exceeded at most one interval after that.
// The upper bound is asserted with scheduling slack; TestDetectionRule pins
// it exactly on a synthetic clock.
func TestWatchdogFiresOnStall(t *testing.T) {
	const quantum, interval = 40 * time.Millisecond, 5 * time.Millisecond
	p := spinningProgram(t)
	e := p.NewExec(0)
	w := New(quantum, interval, []*vm.Exec{e})
	w.Start()
	defer w.Stop()

	start := time.Now()
	res, err := e.Run(nil, make([]byte, kernel.HookBench.CtxSize))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != vm.CancelTerminate {
		t.Fatalf("cancelled = %v", res.Cancelled)
	}
	if elapsed <= quantum {
		t.Fatalf("cancelled after %v, inside its %v quantum", elapsed, quantum)
	}
	if bound := quantum + 2*interval; elapsed > bound+time.Second {
		t.Fatalf("cancelled after %v, want within %v (+1s scheduling slack)", elapsed, bound)
	}
	if w.Fired() == 0 {
		t.Fatal("watchdog reports no firings")
	}
}

// parkingProgram returns a program whose invocation parks inside a helper:
// it sends on entered once in flight and returns when release is received
// from. The detection-rule tests use it to hold an invocation in flight
// across scans they drive by hand.
func parkingProgram(t *testing.T) (p *vm.Program, entered, release chan struct{}) {
	t.Helper()
	const helperPark int32 = 0x7001
	entered, release = make(chan struct{}), make(chan struct{})
	k := kernel.New()
	k.Helpers.MustRegister(&kernel.HelperSpec{
		ID: helperPark, Name: "test_park",
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(*kernel.HelperCtx, [5]uint64) (uint64, error) {
			entered <- struct{}{}
			<-release
			return 0, nil
		},
	})
	p = loadProgram(t, k, asm.New().Call(helperPark).Ret(0).MustAssemble(), 0)
	return p, entered, release
}

// invoke starts one invocation of a parking program and returns once it is
// parked in flight; the returned func releases it and waits for Run.
func invoke(t *testing.T, e *vm.Exec, entered, release chan struct{}) (finish func()) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(nil, make([]byte, kernel.HookBench.CtxSize))
		done <- err
	}()
	<-entered
	return func() {
		t.Helper()
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDetectionRule drives scans by hand over a synthetic clock. The
// watchdog times an invocation from its own first sight of it, so one
// invocation fires at the first scan later than quantum after that sight —
// with scans an interval apart and the first sight up to an interval after
// the start, within quantum + 2·interval of the start — and an idle context
// is never fired on.
func TestDetectionRule(t *testing.T) {
	const quantum, interval = time.Second, 100 * time.Millisecond
	p, entered, release := parkingProgram(t)
	e := p.NewExec(0)
	w := New(quantum, interval, []*vm.Exec{e})
	t0 := time.Now()

	w.scan(t0)
	w.scan(t0.Add(10 * quantum))
	if w.Fired() != 0 {
		t.Fatalf("fired %d times on an idle context", w.Fired())
	}
	finish := invoke(t, e, entered, release)
	start := t0.Add(20 * quantum) // the invocation started just after a scan,
	sight := start.Add(interval)  // so the next one is the first to see it
	w.scan(sight)                 // first sight: the clock starts, idle history is no head start
	w.scan(sight.Add(quantum))    // exactly a quantum in view: not exceeded
	if w.Fired() != 0 {
		t.Fatalf("fired %d times within a quantum of first sight", w.Fired())
	}
	w.scan(sight.Add(quantum + interval))
	if w.Fired() != 1 {
		t.Fatalf("fired %d times at quantum + 2·interval after the start, want 1", w.Fired())
	}
	finish()
	w.scan(sight.Add(2 * quantum))
	if w.Fired() != 1 {
		t.Fatalf("fired %d times, want still 1: the context is idle again", w.Fired())
	}
}

// TestBackToBackInvocationsNeverFire: a context that is in flight at every
// scan for five quanta — but under a different invocation each time — is
// busy, not stalled. A rule that timed "in flight at consecutive polls"
// instead of "the same invocation in flight" would cancel it.
func TestBackToBackInvocationsNeverFire(t *testing.T) {
	const quantum, interval = time.Second, 250 * time.Millisecond
	p, entered, release := parkingProgram(t)
	e := p.NewExec(0)
	w := New(quantum, interval, []*vm.Exec{e})
	t0 := time.Now()
	for now := t0; now.Sub(t0) <= 5*quantum; now = now.Add(interval) {
		finish := invoke(t, e, entered, release)
		w.scan(now)
		finish()
	}
	if w.Fired() != 0 || p.Unloaded() {
		t.Fatalf("fired %d times (unloaded=%v) on back-to-back sub-quantum invocations", w.Fired(), p.Unloaded())
	}
}

// TestWatchdogCoversIdleExec: a context that has never run when polling
// starts — any slot but the first of a constructor set — is covered like
// one already busy.
func TestWatchdogCoversIdleExec(t *testing.T) {
	p := spinningProgram(t)
	execs := []*vm.Exec{p.NewExec(0), p.NewExec(1), p.NewExec(2), p.NewExec(3)}
	w := New(10*time.Millisecond, 2*time.Millisecond, execs)
	w.Start()
	defer w.Stop()
	res, err := execs[3].Run(nil, make([]byte, kernel.HookBench.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != vm.CancelTerminate || w.Fired() == 0 {
		t.Fatalf("first run after Start: cancelled=%v fired=%d", res.Cancelled, w.Fired())
	}
}

func TestWatchdogIgnoresIdleAndFast(t *testing.T) {
	p := loadProgram(t, kernel.New(), asm.New().Ret(0).MustAssemble(), 0)
	e := p.NewExec(0)
	w := New(5*time.Millisecond, time.Millisecond, []*vm.Exec{e})
	w.Start()
	defer w.Stop()
	for i := 0; i < 100; i++ {
		if _, err := e.Run(nil, make([]byte, kernel.HookBench.CtxSize)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(15 * time.Millisecond)
	if w.Fired() != 0 {
		t.Fatalf("watchdog fired %d times on fast invocations", w.Fired())
	}
	if p.Unloaded() {
		t.Fatal("healthy extension unloaded")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	w := New(time.Second, time.Millisecond, nil)
	w.Start()
	w.Start()
	w.Stop()
	w.Stop()
}

// TestLifecycleRace churns Start/Stop while the poller is scanning; run
// under -race it regresses the Stop/Start WaitGroup misuse (Stop used to
// Wait outside the lock while Start could Add).
func TestLifecycleRace(t *testing.T) {
	p := spinningProgram(t)
	w := New(time.Nanosecond, 100*time.Microsecond, []*vm.Exec{p.NewExec(0)}) // fire on every scan
	w.Start()

	var wg sync.WaitGroup
	stopAll := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopAll:
					return
				default:
				}
				w.Start()
				w.Stop()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stopAll)
	wg.Wait()
	w.Stop()
	w.Stop() // idempotent after concurrent churn
}

// TestForcedFiring injects a WatchdogFire fault so a fast, healthy
// extension is cancelled regardless of its elapsed quantum.
func TestForcedFiring(t *testing.T) {
	p := spinningProgram(t)
	e := p.NewExec(0)
	plan := faultinject.NewPlan(1).SetRate(faultinject.WatchdogFire, 1.0)
	plan.Enable()
	// A generous quantum the spin loop never legitimately exceeds within
	// the test's runtime: only the injected firing can cancel it.
	w := New(time.Hour, time.Millisecond, []*vm.Exec{e})
	w.SetFaultPlan(plan)
	w.Start()
	defer w.Stop()

	res, err := e.Run(nil, make([]byte, kernel.HookBench.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != vm.CancelTerminate {
		t.Fatalf("cancelled = %v, want terminate-probe", res.Cancelled)
	}
	if w.Fired() == 0 {
		t.Fatal("forced firing not counted")
	}
	if plan.Injected() == 0 {
		t.Fatal("plan recorded no injections")
	}
}

// TestForcedFiringOnlyInFlight: an injected firing cancels an in-flight
// invocation at first sight, without waiting out a quantum, and leaves an
// idle context alone.
func TestForcedFiringOnlyInFlight(t *testing.T) {
	p, entered, release := parkingProgram(t)
	e := p.NewExec(0)
	plan := faultinject.NewPlan(1).SetRate(faultinject.WatchdogFire, 1.0)
	plan.Enable()
	w := New(time.Hour, time.Millisecond, []*vm.Exec{e})
	w.SetFaultPlan(plan)
	now := time.Now()
	w.scan(now)
	if w.Fired() != 0 {
		t.Fatalf("forced firing cancelled an idle context (%d firings)", w.Fired())
	}
	finish := invoke(t, e, entered, release)
	w.scan(now.Add(time.Millisecond))
	finish()
	if w.Fired() != 1 {
		t.Fatalf("forced firing on an in-flight invocation: fired %d times, want 1", w.Fired())
	}
}
