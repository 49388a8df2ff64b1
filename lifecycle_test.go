// Lifecycle tests: caller deadline propagation (Handle.RunContext) and
// idempotent, race-free extension retirement (Extension.Unload) — the
// runtime-level pieces the supervisor builds its state machine on.
package kflex

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kflex/asm"
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
