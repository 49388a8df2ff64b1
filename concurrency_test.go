package kflex

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
)

// storingProg writes a full heap word and one overlapping byte, reads the
// word back, and returns. Run concurrently from every CPU it exercises the
// heap's atomic word stores and CAS-merged sub-word stores.
func storingProg() []insn.Instruction {
	return asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		StoreImm(insn.R6, 512, 7, 8).
		StoreImm(insn.R6, 517, 9, 1).
		Load(insn.R2, insn.R6, 512, 8).
		Ret(kernel.XDPPass).
		MustAssemble()
}

// TestParallelRunAllCPUs drives every per-CPU execution context from its
// own goroutine — the multi-core serving model — mixing Run and
// RunContext, with handles resolved on the lock-free path each iteration.
// Run under -race this is the tentpole's shared-nothing proof for the
// runtime hot path.
func TestParallelRunAllCPUs(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "parallel",
		Insns:    storingProg(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
		NumCPUs:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	const iters = 300
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for cpu := 0; cpu < 8; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			hctx := make([]byte, HookXDP.CtxSize)
			for i := 0; i < iters; i++ {
				// Resolve the handle every iteration: repeated lookups
				// must be lock- and allocation-free, and always return
				// the same per-CPU context.
				h := ext.Handle(cpu)
				var res Result
				var err error
				if i%50 == 49 {
					res, err = h.RunContext(context.Background(), nil, hctx)
				} else {
					res, err = h.Run(nil, hctx)
				}
				if err != nil {
					errs[cpu] = err
					return
				}
				if res.Ret != kernel.XDPPass {
					t.Errorf("cpu %d: ret = %d", cpu, res.Ret)
					return
				}
			}
		}(cpu)
	}
	wg.Wait()
	for cpu, err := range errs {
		if err != nil {
			t.Fatalf("cpu %d: %v", cpu, err)
		}
	}
	if ext.Unloaded() || ext.Cancels() != 0 {
		t.Fatalf("parallel traffic degraded the extension: cancels=%d", ext.Cancels())
	}
}

// TestHandleStableAcrossLookups pins the Handle contract the hot path
// relies on: the same *Handle pointer comes back for a CPU every time, and
// distinct CPUs get distinct per-CPU contexts.
func TestHandleStableAcrossLookups(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "handles",
		Insns:    asm.New().Ret(kernel.XDPPass).MustAssemble(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
		NumCPUs:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h0 := ext.Handle(0)
	for i := 0; i < 100; i++ {
		if ext.Handle(0) != h0 {
			t.Fatal("Handle(0) changed across lookups")
		}
	}
	if ext.Handle(1) == h0 {
		t.Fatal("distinct CPUs share a handle")
	}
	// CPU numbers wrap onto the table, so 4 aliases 0.
	if ext.Handle(4) != h0 {
		t.Fatal("Handle(4) should alias Handle(0) with 4 CPUs")
	}
	allocs := testing.AllocsPerRun(100, func() { ext.Handle(2) })
	if allocs != 0 {
		t.Fatalf("Handle lookup allocates %.0f objects per call, want 0", allocs)
	}
}

// TestWatchdogCancelsEachStalledCPU: a stall on any CPU is cancelled, and by
// the watchdog — each run must have outlived its quantum — without touching
// the next CPU's run (the first firing used to stop the whole program, and
// the runs on cpus 1 and 2 "passed" by cancelling at their first probe).
// The handles are first resolved after StartWatchdog, which once left them
// unmonitored; every context exists from Load now.
func TestWatchdogCancelsEachStalledCPU(t *testing.T) {
	const quantum = 20 * time.Millisecond
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "spin-late",
		Insns:    spinningProg(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
		NumCPUs:  4,
		// A high threshold: each cancelled run stays scoped to its
		// invocation and the extension survives.
		CancelThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	ext.StartWatchdog(quantum, 5*time.Millisecond)
	defer ext.StopWatchdog()
	for cpu := 0; cpu < 3; cpu++ {
		start := time.Now()
		res, err := ext.Handle(cpu).Run(nil, make([]byte, HookXDP.CtxSize))
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("cpu %d: %v", cpu, err)
		}
		if res.Cancelled != CancelTerminate {
			t.Fatalf("cpu %d: cancelled = %v, want terminate (context unwatched?)", cpu, res.Cancelled)
		}
		if elapsed <= quantum || res.Stats.Insns < 1000 {
			t.Fatalf("cpu %d: cancelled after %v and %d instructions, inside its %v quantum: not the watchdog's doing",
				cpu, elapsed, res.Stats.Insns, quantum)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("cpu %d: watchdog took %v", cpu, elapsed)
		}
	}
	if ext.Cancels() != 3 || ext.Unloaded() {
		t.Fatalf("cancels = %d, unloaded = %v, want 3 and loaded", ext.Cancels(), ext.Unloaded())
	}
}

// TestEverySlotIsAuditedAndWatched: the per-CPU table is whole from Load, so
// a slot no caller ever resolved through Handle is audited and stall-monitored
// like the rest. The invocation reaches slot 3 through the table itself; it
// takes a spin lock and stalls holding it.
func TestEverySlotIsAuditedAndWatched(t *testing.T) {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Add(insn.R6, GlobalsOff). // r6 = &lock
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperKflexSpinLock).
		Label("loop").
		Load(insn.R2, insn.R6, 8, 8).
		Ja("loop").
		MustAssemble()
	ext, err := NewRuntime().Load(Spec{
		Name: "spin-locked", Insns: prog, Hook: HookBench, Mode: ModeKFlex,
		HeapSize: 1 << 16, NumCPUs: 4, CancelThreshold: CancelNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	ext.StartWatchdog(20*time.Millisecond, 2*time.Millisecond)

	held := make(chan int, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, locks := ext.AuditHeld(); locks != 0 {
				held <- locks
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		held <- 0
	}()
	res, err := ext.execs[3].Run(nil, benchCtx(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v, want terminate: slot 3 unwatched?", res.Cancelled)
	}
	if n := <-held; n != 1 {
		t.Fatalf("AuditHeld saw %d locks held on slot 3 mid-stall, want 1", n)
	}
	if refs, locks := ext.AuditHeld(); refs != 0 || locks != 0 {
		t.Fatalf("after unwinding: %d refs, %d locks held", refs, locks)
	}
}

// countedLoop counts ctx.a down to zero (2^64 iterations for 0: a stall).
// The verifier cannot bound it, so every iteration crosses a terminate probe.
func countedLoop() []insn.Instruction {
	return asm.New().
		Load(insn.R4, insn.R1, 8, 8).
		Label("loop").
		Add(insn.R4, -1).
		JmpImm(insn.JmpNe, insn.R4, 0, "loop").
		Ret(0).
		MustAssemble()
}

// TestWatchdogCancelIsPerInvocation: a cancel request reaches the
// invocation it names and nothing else. Below the threshold, the watchdog
// cancelling a stall leaves the next invocations — same CPU and sibling —
// to run to completion through their probes; a request that lands after
// its invocation returned, or for a Run that never started, matches no
// later invocation.
func TestWatchdogCancelIsPerInvocation(t *testing.T) {
	ext, err := NewRuntime().Load(Spec{
		Name:            "counted",
		Insns:           countedLoop(),
		Hook:            HookBench,
		Mode:            ModeKFlex,
		HeapSize:        1 << 16,
		NumCPUs:         2,
		CancelThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	run := func(h *Handle, iters uint64) Result {
		t.Helper()
		hctx := make([]byte, HookBench.CtxSize)
		binary.LittleEndian.PutUint64(hctx[8:], iters)
		res, err := h.Run(nil, hctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := func(h *Handle, when string) {
		t.Helper()
		if res := run(h, 100); res.Cancelled != CancelNone || res.Stats.Probes < 100 {
			t.Fatalf("%s: bounded loop cancelled = %v after %d probes, want none after >= 100",
				when, res.Cancelled, res.Stats.Probes)
		}
	}
	h0, h1 := ext.Handle(0), ext.Handle(1)

	ext.StartWatchdog(20*time.Millisecond, 5*time.Millisecond)
	if res := run(h0, 0); res.Cancelled != CancelTerminate {
		t.Fatalf("stall: cancelled = %v, want terminate", res.Cancelled)
	}
	ext.StopWatchdog()
	healthy(h0, "cpu 0 after its stall was cancelled")
	healthy(h1, "cpu 1 after cpu 0's stall was cancelled")

	// A request aimed at an invocation that already returned.
	seq, inFlight := h0.exec.Invocation()
	if inFlight {
		t.Fatal("idle handle reports an invocation in flight")
	}
	h0.exec.RequestCancel(seq - 1)
	healthy(h0, "after a request for the previous invocation")

	// A request aimed at a Run that returns before starting (wrong ctx
	// size): what RunContext leaves behind when its ctx expires meanwhile.
	h0.exec.RequestCancel(seq + 3)
	if _, err := h0.Run(nil, make([]byte, 1)); err == nil {
		t.Fatal("Run accepted a 1-byte ctx")
	}
	healthy(h0, "after a request for a Run that never started")
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		if _, err := h0.RunContext(ctx, nil, make([]byte, 1)); err == nil {
			t.Fatal("RunContext accepted a 1-byte ctx")
		}
		healthy(h0, "after a RunContext that expired around a Run that never started")
	}
	if ext.Cancels() != 1 || ext.Unloaded() {
		t.Fatalf("cancels = %d, unloaded = %v, want the one stall and loaded", ext.Cancels(), ext.Unloaded())
	}

	// Retired: RunContext refuses like Run.
	ext.Unload()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	var de *DegradedError
	if _, err := h0.RunContext(ctx, nil, make([]byte, HookBench.CtxSize)); !errors.As(err, &de) {
		t.Fatalf("RunContext on a retired extension = %v, want *DegradedError", err)
	}
}

// helperArrive is the rendezvous lockAndSpin calls with its lock held.
const helperArrive int32 = 0x4001

// lockAndSpin takes the spin lock at GlobalsOff+64+8·ctx.a (a is 0 or 1, the
// caller's CPU), reports in, and spins on a heap word that stays zero: it
// holds its lock until it is cancelled.
func lockAndSpin() []insn.Instruction {
	return asm.New().
		Load(insn.R7, insn.R1, 8, 8).
		I(insn.Alu64Imm(insn.AluAnd, insn.R7, 1)).
		I(insn.Alu64Imm(insn.AluLsh, insn.R7, 3)).
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		AddReg(insn.R7, insn.R6).
		Add(insn.R7, GlobalsOff+64).
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperKflexSpinLock).
		Call(helperArrive).
		Label("spin").
		Load(insn.R2, insn.R6, 512, 8).
		JmpImm(insn.JmpEq, insn.R2, 0, "spin").
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperKflexSpinUnlock).
		Ret(0).
		MustAssemble()
}

// TestConcurrentCancelLeavesNoLock: two CPUs, each holding its own lock,
// are cancelled at the same moment — the second to report in arms the plan,
// and from that instant every heap access on either faults — and both
// unwinds release their lock. An unwind
// is shielded from injection by Plan.Suspend, which nests; as a disarm/
// re-arm pair around each unwind, the one that finished first re-armed the
// plan under the other, whose unlock then took the injected fault, dropped
// the error and left the lock held for good.
func TestConcurrentCancelLeavesNoLock(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 200
	}
	plan := faultinject.NewPlan(1).SetRate(faultinject.HeapGuard, 1)
	rt := NewRuntime()
	var arrived atomic.Uint64
	rt.Kernel().Helpers.MustRegister(&kernel.HelperSpec{
		ID:   helperArrive,
		Name: "test_arrive",
		Ret:  kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(*kernel.HelperCtx, [5]uint64) (uint64, error) {
			if arrived.Add(1)%2 == 0 {
				plan.Enable() // both invocations are in flight, locks held
			}
			return 0, nil
		},
	})
	ext, err := rt.Load(Spec{
		Name:            "lock-and-spin",
		Insns:           lockAndSpin(),
		Hook:            HookBench,
		Mode:            ModeKFlex,
		HeapSize:        1 << 16,
		NumCPUs:         2,
		FaultPlan:       plan,
		CancelThreshold: CancelNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for cpu := 0; cpu < 2; cpu++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hctx := make([]byte, HookBench.CtxSize)
				binary.LittleEndian.PutUint64(hctx[8:], uint64(cpu))
				if res, err := ext.Handle(cpu).Run(nil, hctx); err != nil || res.Cancelled == CancelNone {
					t.Errorf("round %d cpu %d: cancelled = %v, err = %v, want a cancellation", round, cpu, res.Cancelled, err)
				}
			}()
		}
		wg.Wait()
		plan.Disarm()
		base := ext.Heap().ExtBase() + GlobalsOff + 64
		for cpu := uint64(0); cpu < 2; cpu++ {
			if ext.ExtLocks().Held(base + 8*cpu) {
				t.Fatalf("round %d: cpu %d's lock is still held after its invocation was cancelled", round, cpu)
			}
		}
		if refs, held := ext.AuditHeld(); refs != 0 || held != 0 {
			t.Fatalf("round %d: audit = %d refs, %d locks, want 0, 0", round, refs, held)
		}
	}
}

// TestLockSpinCancel: CPU 0 takes the lock at GlobalsOff+64 and waits in
// the arrival helper holding it; CPU 1 queues behind it in kflex_spin_lock.
// Either stop a lock spin polls — CPU 1's caller context ending, as at a
// deadline, or retirement — ends CPU 1's wait with a lock-spin
// cancellation. CPU 0, let go, then unwinds at a probe and releases the
// lock; nothing is left held.
func TestLockSpinCancel(t *testing.T) {
	rt := NewRuntime()
	var arrived atomic.Uint64
	var hold chan struct{}
	rt.Kernel().Helpers.MustRegister(&kernel.HelperSpec{
		ID:   helperArrive,
		Name: "test_arrive",
		Ret:  kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(*kernel.HelperCtx, [5]uint64) (uint64, error) {
			arrived.Add(1)
			<-hold
			return 0, nil
		},
	})
	for _, unload := range []bool{false, true} {
		name := map[bool]string{false: "deadline", true: "unload"}[unload]
		t.Run(name, func(t *testing.T) {
			arrived.Store(0)
			hold = make(chan struct{})
			ext, err := rt.Load(Spec{
				Name:            "lock-spin-" + name,
				Insns:           lockAndSpin(),
				Hook:            HookBench,
				Mode:            ModeKFlex,
				HeapSize:        1 << 16,
				NumCPUs:         2,
				CancelThreshold: CancelNever,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ext.Close()
			results := make([]chan Result, 2)
			start := func(cpu int, ctx context.Context) {
				results[cpu] = make(chan Result, 1)
				go func() {
					// ctx.a = 0 on both CPUs: one lock.
					res, err := ext.Handle(cpu).RunContext(ctx, nil, make([]byte, HookBench.CtxSize))
					if err != nil {
						t.Errorf("cpu %d: %v", cpu, err)
					}
					results[cpu] <- res
				}()
			}
			ctx0, cancel0 := context.WithCancel(context.Background())
			defer cancel0()
			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			start(0, ctx0)
			for arrived.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			start(1, ctx1)
			lock := ext.Heap().ExtBase() + GlobalsOff + 64
			view := ext.Heap().ExtView()
			for {
				next, err := view.AtomicLoad(lock+4, 4)
				if err != nil {
					t.Fatal(err)
				}
				if next == 2 {
					break // CPU 1 holds ticket 1 and spins
				}
				time.Sleep(time.Millisecond)
			}
			if unload {
				ext.Unload()
			} else {
				cancel1()
			}
			if res := <-results[1]; res.Cancelled != CancelLock {
				t.Fatalf("cpu 1: cancelled = %v, want lock-spin", res.Cancelled)
			}
			close(hold)
			if !unload {
				cancel0()
			}
			if res := <-results[0]; res.Cancelled != CancelTerminate {
				t.Fatalf("cpu 0: cancelled = %v, want terminate-probe", res.Cancelled)
			}
			if n := arrived.Load(); n != 1 {
				t.Fatalf("%d invocations took the lock, want cpu 0 alone", n)
			}
			if ext.ExtLocks().Held(lock) {
				t.Fatal("lock still held after both invocations unwound")
			}
			if refs, held := ext.AuditHeld(); refs != 0 || held != 0 {
				t.Fatalf("audit = %d refs, %d locks, want 0, 0", refs, held)
			}
		})
	}
}
