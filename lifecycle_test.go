// Lifecycle tests: caller deadline propagation (Handle.RunContext) and
// idempotent, race-free extension retirement (Extension.Unload) — the
// runtime-level pieces the supervisor builds its state machine on.
package kflex

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// TestRunContextExpired: an already-expired context must refuse the run
// before any extension code executes.
func TestRunContextExpired(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "ctx-expired",
		Insns:    asm.New().Ret(kernel.XDPPass).MustAssemble(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := h.RunContext(ctx, nil, make([]byte, HookXDP.CtxSize)); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(expired) err = %v, want context.Canceled", err)
	}
	// Nothing executed: no cancellation was charged and the extension is
	// untouched — the next plain Run proceeds normally.
	if ext.Cancels() != 0 || ext.Unloaded() {
		t.Fatalf("expired ctx executed: cancels=%d unloaded=%v", ext.Cancels(), ext.Unloaded())
	}
	res, err := h.Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil || res.Ret != kernel.XDPPass {
		t.Fatalf("Run after expired ctx = (%v, %v)", res.Ret, err)
	}
}

// TestRunContextNoDeadline: a context that can never be cancelled takes
// the plain Run path (no watcher goroutine armed).
func TestRunContextNoDeadline(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "ctx-plain",
		Insns:    asm.New().Ret(kernel.XDPPass).MustAssemble(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	res, err := ext.Handle(0).RunContext(context.Background(), nil, make([]byte, HookXDP.CtxSize))
	if err != nil || res.Ret != kernel.XDPPass {
		t.Fatalf("RunContext(Background) = (%v, %v)", res.Ret, err)
	}
}

// TestRunContextDeadlineMidRun: a deadline expiring mid-run must trigger
// the same cooperative cancellation as a watchdog firing — the invocation
// faults at a terminate probe, releases held kernel objects through its
// object table, and returns the hook's default code.
func TestRunContextDeadlineMidRun(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:            "ctx-deadline",
		Insns:           spinWithSock(),
		Hook:            HookXDP,
		Mode:            ModeKFlex,
		HeapSize:        1 << 16,
		CancelThreshold: CancelNever, // the cancellation stays per-invocation
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	sock := kernel.NewObject(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := h.RunContext(ctx, &sockEvent{sock: sock}, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v, want terminate", res.Cancelled)
	}
	if res.Ret != kernel.XDPPass {
		t.Fatalf("ret = %d, want the hook default %d", res.Ret, kernel.XDPPass)
	}
	// Identical unwinding to watchdog cancellation: the acquired socket
	// reference was released via the object-table walk (§3.3), no lock or
	// reference is left held, and below its threshold the extension survives.
	if sock.Refs() != 1 {
		t.Fatalf("socket refs = %d after deadline cancellation, want 1", sock.Refs())
	}
	if refs, locks := ext.AuditHeld(); refs != 0 || locks != 0 {
		t.Fatalf("held refs=%d locks=%d after cancellation, want 0/0", refs, locks)
	}
	if ext.Unloaded() || ext.Cancels() != 1 {
		t.Fatalf("unloaded=%v cancels=%d, want loaded with 1 cancellation", ext.Unloaded(), ext.Cancels())
	}

	// The cancel request must not leak into the next invocation: a second
	// deadline run behaves exactly like the first.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	res, err = h.RunContext(ctx2, &sockEvent{sock: sock}, make([]byte, HookXDP.CtxSize))
	if err != nil || res.Cancelled != CancelTerminate {
		t.Fatalf("second deadline run = (%+v, %v)", res, err)
	}
	if sock.Refs() != 1 || ext.Cancels() != 2 {
		t.Fatalf("second run: refs=%d cancels=%d", sock.Refs(), ext.Cancels())
	}
}

// TestUnloadIdempotent: concurrent Unload calls must retire the extension
// exactly once (run under -race in the Makefile's race target).
func TestUnloadIdempotent(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "unload-race",
		Insns:    asm.New().Ret(kernel.XDPPass).MustAssemble(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	const goroutines = 64
	var wg sync.WaitGroup
	transitions := make(chan bool, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			transitions <- ext.Unload()
		}()
	}
	wg.Wait()
	close(transitions)
	won := 0
	for tr := range transitions {
		if tr {
			won++
		}
	}
	if won != 1 || !ext.Unloaded() {
		t.Fatalf("unload transitions = %d (unloaded %v), want exactly 1", won, ext.Unloaded())
	}
	// Further Unloads stay no-ops.
	if ext.Unload() {
		t.Fatal("repeated Unload transitioned again")
	}
	// Runs now refuse with the typed retirement error, which matches the
	// fallback sentinel.
	_, err = ext.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize))
	var de *DegradedError
	if !errors.As(err, &de) || de.Ext != "unload-race" {
		t.Fatalf("Run after Unload = %v, want *DegradedError for unload-race", err)
	}
	if !errors.Is(err, ErrFallback) {
		t.Fatalf("DegradedError does not match ErrFallback: %v", err)
	}
}

// TestUnloadDuringRun: unloading while an invocation is in flight must
// cancel it cooperatively (its probes read the retirement flag), not race it.
func TestUnloadDuringRun(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:            "unload-midrun",
		Insns:           spinningProg(),
		Hook:            HookXDP,
		Mode:            ModeKFlex,
		HeapSize:        1 << 16,
		CancelThreshold: CancelNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := h.Run(nil, make([]byte, HookXDP.CtxSize))
		done <- outcome{res, err}
	}()
	// Wait until the invocation is actually spinning, then retire the
	// extension out from under it.
	for {
		if _, running := runningProbe(h); running {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !ext.Unload() {
		t.Fatal("Unload did not transition")
	}
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Cancelled != CancelTerminate {
		t.Fatalf("in-flight run cancelled = %v, want terminate", out.res.Cancelled)
	}
	if ext.Unload() || !ext.Unloaded() {
		t.Fatalf("unloaded=%v after mid-run unload, and a second Unload must not transition", ext.Unloaded())
	}
}

// runningProbe reports whether the handle's invocation is in flight.
func runningProbe(h *Handle) (uint64, bool) { return h.exec.Invocation() }

// TestAdopt reaches Runtime.Load's adoption validation directly: a donor is
// refused when it has no heap, a heap of another size, or a closed one; an
// accepted donor's heap and allocator carry on in the adopter — what the
// donor wrote the adopter reads — and when the adopter declares fewer CPUs
// the magazines it can no longer reach are spilled back to the depot.
func TestAdopt(t *testing.T) {
	// ctx.op != 0 stores ctx.a in the globals area; every run returns the
	// stored word.
	prog := asm.New().
		Mov(insn.R7, insn.R1).
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Load(insn.R2, insn.R7, 0, 8).
		JmpImm(insn.JmpEq, insn.R2, 0, "read").
		Load(insn.R3, insn.R7, 8, 8).
		Store(insn.R6, GlobalsOff, insn.R3, 8).
		Label("read").
		Load(insn.R0, insn.R6, GlobalsOff, 8).
		Exit().
		MustAssemble()
	rt := NewRuntime()
	spec := Spec{Name: "adopt", Insns: prog, Hook: HookBench, Mode: ModeKFlex, HeapSize: 1 << 16, NumCPUs: 4}
	load := func(mut func(*Spec)) (*Extension, error) {
		s := spec
		if mut != nil {
			mut(&s)
		}
		return rt.Load(s)
	}
	donor := func(mut func(*Spec)) *Extension {
		t.Helper()
		d, err := load(mut)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}

	closed := donor(nil)
	closed.Close()
	heapless := donor(func(s *Spec) {
		s.Insns, s.Mode, s.HeapSize = asm.New().Ret(0).MustAssemble(), ModeEBPF, 0
	})
	for _, tc := range []struct {
		name    string
		donor   *Extension
		size    uint64
		wantErr string
	}{
		{"size mismatch", donor(nil), 1 << 17, "adopted heap is 65536 bytes, spec declares 131072"},
		{"closed heap", closed, 1 << 16, "adopted heap is closed"},
		{"heapless donor", heapless, 1 << 16, "has no heap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := load(func(s *Spec) { s.Adopt, s.HeapSize = tc.donor, tc.size })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Load err = %v, want %q", err, tc.wantErr)
			}
		})
	}

	t.Run("adopted", func(t *testing.T) {
		d := donor(nil)
		if res, err := d.Handle(0).Run(nil, benchCtx(1, 0xfeed, 0)); err != nil || res.Ret != 0xfeed {
			t.Fatalf("donor store: ret=%#x err=%v", res.Ret, err)
		}
		// Park a block in the magazine of CPU 3, a slot the adopter's
		// two-CPU table (plus its user slot, 2) cannot reach.
		a := d.Alloc()
		if err := a.Free(3, a.Malloc(3, 64)); err != nil {
			t.Fatal(err)
		}
		if n := a.Stats().Spills; n != 0 {
			t.Fatalf("%d spills before adoption", n)
		}
		d.Unload()
		ext, err := load(func(s *Spec) { s.Adopt, s.NumCPUs = d, 2 })
		if err != nil {
			t.Fatal(err)
		}
		if ext.Heap() != d.Heap() || ext.Alloc() != a {
			t.Fatal("adopter did not take over the donor's heap and allocator")
		}
		if res, err := ext.Handle(1).Run(nil, benchCtx(0, 0, 0)); err != nil || res.Ret != 0xfeed {
			t.Fatalf("adopter read: ret=%#x err=%v, want the donor's 0xfeed", res.Ret, err)
		}
		if n := a.Stats().Spills; n != 1 {
			t.Fatalf("%d spills after adoption by a 2-CPU generation, want 1 (CPU 3's magazine)", n)
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	})
}
