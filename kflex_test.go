package kflex

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/heap"
	"kflex/internal/kernel"
)

func benchCtx(op, a, b uint64) []byte {
	ctx := make([]byte, HookBench.CtxSize)
	binary.LittleEndian.PutUint64(ctx[0:], op)
	binary.LittleEndian.PutUint64(ctx[8:], a)
	binary.LittleEndian.PutUint64(ctx[16:], b)
	return ctx
}

func TestLoadAndRunTrivial(t *testing.T) {
	rt := NewRuntime()
	for _, mode := range []Mode{ModeEBPF, ModeKFlex} {
		spec := Spec{
			Name:  "trivial",
			Insns: asm.New().Ret(42).MustAssemble(),
			Hook:  HookBench,
			Mode:  mode,
		}
		if mode == ModeKFlex {
			spec.HeapSize = 1 << 16
		}
		ext, err := rt.Load(spec)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		res, err := ext.Handle(0).Run(nil, benchCtx(0, 0, 0))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Ret != 42 || res.Cancelled != CancelNone {
			t.Errorf("mode %d: res = %+v", mode, res)
		}
		ext.Close()
	}
}

// TestHeapBaseIsAFunctionOfSize: heaps of one size that are live together,
// in one Runtime and across two, share their bases, and each extension's
// view still reaches only its own heap there.
func TestHeapBaseIsAFunctionOfSize(t *testing.T) {
	spec := Spec{Name: "placed", Insns: asm.New().Ret(0).MustAssemble(), Hook: HookBench, Mode: ModeKFlex, HeapSize: 1 << 16}
	rt := NewRuntime()
	var heaps []*heap.Heap
	for _, r := range []*Runtime{rt, rt, NewRuntime()} {
		ext, err := r.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer ext.Close()
		heaps = append(heaps, ext.Heap())
	}
	for i, h := range heaps[1:] {
		if h.ExtBase() != heaps[0].ExtBase() || h.UserBase() != heaps[0].UserBase() {
			t.Errorf("heap %d at %#x/%#x, heap 0 at %#x/%#x", i+1, h.ExtBase(), h.UserBase(), heaps[0].ExtBase(), heaps[0].UserBase())
		}
	}
	off := spec.HeapSize - heap.PageSize
	for i, h := range heaps {
		if err := h.Populate(off, heap.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := h.ExtView().Store(h.ExtBase()+off, 8, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range heaps {
		if v, err := h.ExtView().Load(h.ExtBase()+off, 8); err != nil || v != uint64(i+1) {
			t.Errorf("heap %d reads %d, %v at the shared address; want its own %d", i, v, err, i+1)
		}
	}
}

func TestLoadRejectsUnverifiable(t *testing.T) {
	rt := NewRuntime()
	_, err := rt.Load(Spec{
		Name:  "bad",
		Insns: asm.New().Mov(insn.R0, insn.R5).Exit().MustAssemble(),
		Hook:  HookBench,
	})
	if err == nil || !strings.Contains(err.Error(), "uninitialized") {
		t.Fatalf("err = %v", err)
	}
	_, err = rt.Load(Spec{
		Name:     "heap-in-ebpf",
		Insns:    asm.New().Ret(0).MustAssemble(),
		Hook:     HookBench,
		Mode:     ModeEBPF,
		HeapSize: 1 << 16,
	})
	if err == nil {
		t.Fatal("heap accepted in eBPF mode")
	}
}

// mallocStoreLoad allocates a block, stores ctx->a into it, reads it back,
// and returns it: exercises malloc, SFI-elided access, and the heap.
func mallocStoreLoad() []insn.Instruction {
	return asm.New().
		Mov(insn.R6, insn.R1). // save ctx
		MovImm(insn.R1, 64).
		Call(kernel.HelperKflexMalloc).
		JmpImm(insn.JmpEq, insn.R0, 0, "oom").
		Mov(insn.R7, insn.R0).
		Load(insn.R2, insn.R6, 8, 8).  // ctx->a
		Store(insn.R7, 0, insn.R2, 8). // node->val = a
		Load(insn.R8, insn.R7, 0, 8).  // read back (callee-saved reg)
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperKflexFree).
		Mov(insn.R0, insn.R8).
		Exit().
		Label("oom").
		Ret(0).
		MustAssemble()
}

func TestMallocRoundTrip(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "malloc",
		Insns:    mallocStoreLoad(),
		Hook:     HookBench,
		Mode:     ModeKFlex,
		HeapSize: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	for _, v := range []uint64{7, 0xdeadbeef, 1 << 40} {
		res, err := h.Run(nil, benchCtx(0, v, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != v {
			t.Fatalf("ret = %#x, want %#x", res.Ret, v)
		}
	}
	st := ext.Alloc().Stats()
	if st.Allocs != 3 || st.Frees != 3 {
		t.Errorf("alloc stats = %+v", st)
	}
	// Fresh malloc'd pointers need no guards at all (§3.2).
	if ext.Report().ManipGuards != 0 {
		t.Errorf("unexpected manipulation guards: %s", ext.Report())
	}
}

// spinningProg loops forever walking the heap (a buggy extension).
func spinningProg() []insn.Instruction {
	return asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("loop").
		Load(insn.R2, insn.R6, 8, 8).
		Ja("loop").
		MustAssemble()
}

func TestQuantumCancellation(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:         "spin",
		Insns:        spinningProg(),
		Hook:         HookXDP,
		Mode:         ModeKFlex,
		HeapSize:     1 << 16,
		QuantumInsns: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if ext.Report().Probes == 0 {
		t.Fatal("no probes planted for unbounded loop")
	}
	res, err := ext.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v, want terminate", res.Cancelled)
	}
	// Cancelled network extensions pass packets by default (§4.3).
	if res.Ret != kernel.XDPPass {
		t.Errorf("ret = %d, want XDP_PASS", res.Ret)
	}
	if !ext.Unloaded() || ext.Cancels() != 1 {
		t.Error("extension should be unloaded after cancellation")
	}
	// Further invocations are refused (§4.3 cancellation scope).
	if _, err := ext.Handle(1).Run(nil, make([]byte, HookXDP.CtxSize)); !errors.Is(err, ErrFallback) {
		t.Fatalf("second run err = %v, want ErrFallback", err)
	}
}

// sockEvent implements kernel.UDPLookups for cancellation tests.
type sockEvent struct {
	sock *kernel.Object
}

func (e *sockEvent) LookupUDP(tuple []byte) *kernel.Object { return e.sock.Get() }

// spinWithSock acquires a socket, then spins: cancellation must release it
// via the object-table walk (§3.3).
func spinWithSock() []insn.Instruction {
	return asm.New().
		Mov(insn.R9, insn.R1).
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
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R7, insn.R0).
		Label("loop").
		Load(insn.R2, insn.R7, 8, 8).
		Ja("loop").
		Label("nosock").
		Ret(0).
		MustAssemble()
}

func TestCancellationReleasesKernelObjects(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:         "spin-sock",
		Insns:        spinWithSock(),
		Hook:         HookXDP,
		Mode:         ModeKFlex,
		HeapSize:     1 << 16,
		QuantumInsns: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	sock := kernel.NewObject(nil)
	res, err := ext.Handle(0).Run(&sockEvent{sock: sock}, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v", res.Cancelled)
	}
	// The acquired reference was released during unwinding.
	if sock.Refs() != 1 {
		t.Fatalf("socket refs = %d after cancellation, want 1", sock.Refs())
	}
	// The verifier's object tables must mention the socket at the loop CP.
	found := false
	for _, cp := range ext.Report().CPs {
		for _, row := range cp.Table {
			if row.Kind == "sock" {
				found = true
			}
		}
	}
	if !found {
		t.Error("object tables never mention the held socket")
	}
}

func TestWatchdogCancellation(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:     "spin-wd",
		Insns:    spinningProg(),
		Hook:     HookXDP,
		Mode:     ModeKFlex,
		HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	ext.StartWatchdog(20*time.Millisecond, 5*time.Millisecond)
	defer ext.StopWatchdog()
	start := time.Now()
	res, err := h.Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v", res.Cancelled)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v", elapsed)
	}
}

func TestCancellationCallback(t *testing.T) {
	rt := NewRuntime()
	// Callback: return (input code) + 100.
	cb := asm.New().
		Mov(insn.R0, insn.R1).
		Add(insn.R0, 100).
		Exit().
		MustAssemble()
	ext, err := rt.Load(Spec{
		Name:         "spin-cb",
		Insns:        spinningProg(),
		Hook:         HookXDP,
		Mode:         ModeKFlex,
		HeapSize:     1 << 16,
		QuantumInsns: 5_000,
		Callback:     cb,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	res, err := ext.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != kernel.XDPPass+100 {
		t.Fatalf("callback-adjusted ret = %d, want %d", res.Ret, kernel.XDPPass+100)
	}
}

// TestCallbackCompiledOnce: the callback is part of what compile produces,
// so a second Load of the spec takes it from the compile cache with the
// rest — and a spec that differs only in its callback is a different spec.
func TestCallbackCompiledOnce(t *testing.T) {
	rt := NewRuntime()
	spec := Spec{
		Name: "spin-cb", Insns: spinningProg(), Hook: HookXDP, Mode: ModeKFlex,
		HeapSize: 1 << 16, QuantumInsns: 5_000,
		Callback: asm.New().Mov(insn.R0, insn.R1).Add(insn.R0, 100).Exit().MustAssemble(),
	}
	load := func(spec Spec) *Extension {
		ext, err := rt.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ext.Close)
		return ext
	}
	first, second := load(spec), load(spec)
	if first.art.callback == nil || second.art != first.art || !second.Pipeline().CacheHit {
		t.Fatalf("second load compiled its callback again: artifacts %p and %p, callback %p",
			first.art, second.art, first.art.callback)
	}
	// The cached callback still runs, on an extension of its own.
	res, err := second.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil || res.Ret != kernel.XDPPass+100 {
		t.Fatalf("reloaded extension: ret = %d, err = %v, want %d", res.Ret, err, kernel.XDPPass+100)
	}

	other := spec
	other.Callback = asm.New().Mov(insn.R0, insn.R1).Add(insn.R0, 7).Exit().MustAssemble()
	third := load(other)
	if third.Pipeline().CacheHit || third.art.callback == first.art.callback {
		t.Fatal("a spec with a different callback was served the cached one")
	}
	if res, err := third.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize)); err != nil || res.Ret != kernel.XDPPass+7 {
		t.Fatalf("other callback: ret = %d, err = %v, want %d", res.Ret, err, kernel.XDPPass+7)
	}
}

// TestCompileCacheCollision: a cache hit skips the verifier, so a 64-bit
// fingerprint alone must not decide one. With a verified spec's artifacts
// filed under the fingerprint of a program the verifier rejects, loading
// that program is a miss and is rejected; decided by the fingerprint, it
// loaded and ran the other spec's code unverified.
func TestCompileCacheCollision(t *testing.T) {
	rt := NewRuntime()
	good := Spec{Name: "good", Insns: asm.New().Ret(kernel.XDPPass).MustAssemble(), Hook: HookXDP, Mode: ModeKFlex, HeapSize: 1 << 16}
	bad := good
	bad.Name = "bad"
	bad.Insns = asm.New().Mov(insn.R0, insn.R5).Exit().MustAssemble() // reads an uninitialised register
	ext, err := rt.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	rt.PlantCompiled(good, bad)
	if loaded, err := rt.Load(bad); err == nil {
		loaded.Close()
		t.Fatalf("an unverifiable program loaded on a colliding cache entry (cache hit: %v)", loaded.Pipeline().CacheHit)
	}
	// The entry the collision displaced nothing of: good still hits.
	again, err := rt.Load(good)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if !again.Pipeline().CacheHit || again.art != ext.art {
		t.Fatal("the rejected load disturbed the cached artifacts of the spec it collided with")
	}
}

func TestCallbackRestrictions(t *testing.T) {
	rt := NewRuntime()
	// A callback with an unbounded loop must be rejected (§4.3).
	bad := asm.New().
		Label("spin").
		JmpImm(insn.JmpNe, insn.R1, 0, "spin").
		Ret(0).
		MustAssemble()
	_, err := rt.Load(Spec{
		Name:         "bad-cb",
		Insns:        spinningProg(),
		Hook:         HookXDP,
		Mode:         ModeKFlex,
		HeapSize:     1 << 16,
		QuantumInsns: 1000,
		Callback:     bad,
	})
	if err == nil || !strings.Contains(err.Error(), "callback") {
		t.Fatalf("err = %v", err)
	}
}

// sharedStore writes a node, stores its pointer at globals+0, and returns.
func sharedStore() []insn.Instruction {
	return asm.New().
		Mov(insn.R6, insn.R1).
		MovImm(insn.R1, 64).
		Call(kernel.HelperKflexMalloc).
		JmpImm(insn.JmpEq, insn.R0, 0, "oom").
		Mov(insn.R7, insn.R0).
		Load(insn.R2, insn.R6, 8, 8).  // ctx->a
		Store(insn.R7, 8, insn.R2, 8). // node->val = a
		Call(kernel.HelperKflexHeapBase).
		Add(insn.R0, GlobalsOff).
		Store(insn.R0, 0, insn.R7, 8). // *globals = node (translate-on-store)
		Ret(0).
		Label("oom").
		Ret(1).
		MustAssemble()
}

func TestSharedHeapTranslateOnStore(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:      "shared",
		Insns:     sharedStore(),
		Hook:      HookBench,
		Mode:      ModeKFlex,
		HeapSize:  1 << 20,
		ShareHeap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if ext.Report().XlatStores == 0 {
		t.Fatal("no translate-on-store sites instrumented")
	}
	res, err := ext.Handle(0).Run(nil, benchCtx(0, 0x1234_5678, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 0 {
		t.Fatalf("ret = %d", res.Ret)
	}
	// User space walks the structure through plain pointers: read the
	// node pointer from globals, then the value through it (§3.4).
	uv, err := ext.UserView()
	if err != nil {
		t.Fatal(err)
	}
	nodeUserVA, err := uv.Load(uv.Base()+GlobalsOff, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !uv.Contains(nodeUserVA) {
		t.Fatalf("stored pointer %#x is not a user VA", nodeUserVA)
	}
	val, err := uv.Load(nodeUserVA+8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if val != 0x1234_5678 {
		t.Fatalf("user-visible value = %#x", val)
	}
}

func TestUserMallocSharing(t *testing.T) {
	rt := NewRuntime()
	// Extension reads the value user space wrote at globals pointer.
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Add(insn.R0, GlobalsOff).
		Load(insn.R1, insn.R0, 0, 8). // user-VA pointer stored by app
		Load(insn.R0, insn.R1, 0, 8). // formation guard re-bases it
		Exit().
		MustAssemble()
	ext, err := rt.Load(Spec{
		Name:      "user-malloc",
		Insns:     prog,
		Hook:      HookBench,
		Mode:      ModeKFlex,
		HeapSize:  1 << 20,
		ShareHeap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	userPtr, err := ext.UserMalloc(64)
	if err != nil {
		t.Fatal(err)
	}
	uv, _ := ext.UserView()
	if err := uv.Store(userPtr, 8, 777); err != nil {
		t.Fatal(err)
	}
	if err := uv.Store(uv.Base()+GlobalsOff, 8, userPtr); err != nil {
		t.Fatal(err)
	}
	res, err := ext.Handle(0).Run(nil, benchCtx(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 777 {
		t.Fatalf("extension read %d through shared pointer, want 777", res.Ret)
	}
	if err := ext.UserFree(userPtr); err != nil {
		t.Fatal(err)
	}
}

func TestPerfModeSkipsReadGuards(t *testing.T) {
	rt := NewRuntime()
	prog := asm.New().
		Load(insn.R2, insn.R1, 8, 8). // ctx->a: a raw "pointer"
		Load(insn.R0, insn.R2, 0, 8). // formation read guard
		Exit().
		MustAssemble()

	// Normal mode: the wild value is sanitized into the heap; the read
	// succeeds (returning heap bytes).
	ext, err := rt.Load(Spec{
		Name: "pm-off", Insns: prog, Hook: HookBench,
		Mode: ModeKFlex, HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	res, err := ext.Handle(0).Run(nil, benchCtx(0, 0xdead0000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelNone {
		t.Fatalf("sanitized read cancelled: %v", res.Cancelled)
	}
	if res.Stats.Guards == 0 {
		t.Error("no guard executed in normal mode")
	}

	// Performance mode: the same wild read traps (SMAP analogue) and the
	// extension cancels; kernel safety is preserved (§4.2).
	extPM, err := rt.Load(Spec{
		Name: "pm-on", Insns: prog, Hook: HookBench,
		Mode: ModeKFlex, HeapSize: 1 << 16, PerfMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer extPM.Close()
	res, err = extPM.Handle(0).Run(nil, benchCtx(0, 0xdead0000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelFault {
		t.Fatalf("wild perf-mode read: cancelled = %v, want fault", res.Cancelled)
	}
	if res.Stats.Guards != 0 {
		t.Errorf("perf mode executed %d guards", res.Stats.Guards)
	}

	// A correct program (valid heap pointers) runs fine in perf mode.
	extOK, err := rt.Load(Spec{
		Name: "pm-correct", Insns: mallocStoreLoad(), Hook: HookBench,
		Mode: ModeKFlex, HeapSize: 1 << 20, PerfMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer extOK.Close()
	res, err = extOK.Handle(0).Run(nil, benchCtx(0, 99, 0))
	if err != nil || res.Ret != 99 || res.Cancelled != CancelNone {
		t.Fatalf("correct perf-mode run: %+v, %v", res, err)
	}
}

func TestEBPFCompatWithMaps(t *testing.T) {
	rt := NewRuntime()
	m, err := rt.NewLRUMap(1, 16, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// prog: read map[ctx->a % 16] and return its first u64.
	prog := asm.New().
		Load(insn.R2, insn.R1, 8, 4). // low half of ctx->a
		I(insn.Alu64Imm(insn.AluAnd, insn.R2, 15)).
		Store(insn.R10, -4, insn.R2, 4).
		MovImm(insn.R1, 1).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "miss").
		Load(insn.R0, insn.R0, 0, 8).
		Exit().
		Label("miss").
		Ret(0).
		MustAssemble()
	ext, err := rt.Load(Spec{
		Name: "bmc-ish", Insns: prog, Hook: HookBench, Mode: ModeEBPF,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	key := make([]byte, 4)
	binary.LittleEndian.PutUint32(key, 5)
	val := make([]byte, 8)
	binary.LittleEndian.PutUint64(val, 0xabcdef)
	if err := m.Update(key, val); err != nil {
		t.Fatal(err)
	}
	res, err := ext.Handle(0).Run(nil, benchCtx(0, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 0xabcdef {
		t.Fatalf("map lookup via extension = %#x", res.Ret)
	}
	res, err = ext.Handle(0).Run(nil, benchCtx(0, 6, 0))
	if err != nil || res.Ret != 0 {
		t.Fatalf("missing key = %#x, %v", res.Ret, err)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	rt := NewRuntime()
	// Extension increments a heap counter under a lock.
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0). // r6 = heap base
		Mov(insn.R7, insn.R6).
		Add(insn.R7, GlobalsOff). // r7 = &lock
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperKflexSpinLock).
		Load(insn.R2, insn.R7, 8, 8). // counter at lock+8
		Add(insn.R2, 1).
		Store(insn.R7, 8, insn.R2, 8).
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperKflexSpinUnlock).
		Ret(0).
		MustAssemble()
	ext, err := rt.Load(Spec{
		Name: "locked-counter", Insns: prog, Hook: HookBench,
		Mode: ModeKFlex, HeapSize: 1 << 16, NumCPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()

	const workers, iters = 4, 500
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		h := ext.Handle(w)
		go func() {
			for i := 0; i < iters; i++ {
				if _, err := h.Run(nil, benchCtx(0, 0, 0)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	uv, _ := ext.UserView()
	got, err := uv.Load(uv.Base()+GlobalsOff+8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != workers*iters {
		t.Fatalf("locked counter = %d, want %d", got, workers*iters)
	}
}

// TestCancelScopeBelowThreshold covers the §4.3 future-work extension: below the
// cancel threshold, a quantum cancellation terminates only the faulting
// invocation; other CPUs keep running the extension.
func TestCancelScopeBelowThreshold(t *testing.T) {
	rt := NewRuntime()
	ext, err := rt.Load(Spec{
		Name:            "spin-local",
		Insns:           spinningProg(),
		Hook:            HookXDP,
		Mode:            ModeKFlex,
		HeapSize:        1 << 16,
		QuantumInsns:    5_000,
		CancelThreshold: CancelNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	res, err := ext.Handle(0).Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v", res.Cancelled)
	}
	if ext.Unloaded() {
		t.Fatal("a cancellation below the threshold unloaded the extension")
	}
	// Another invocation runs (and is cancelled again, independently).
	res, err = ext.Handle(1).Run(nil, make([]byte, HookXDP.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelTerminate || ext.Cancels() != 2 {
		t.Fatalf("second invocation: %v, cancels=%d", res.Cancelled, ext.Cancels())
	}
}

// TestObjectTableConflictDetection covers the §4.3 corner case: two
// non-loop paths leaving the same acquired resource in different registers
// at one cancellation point must be flagged for acquisition-time spilling.
func TestObjectTableConflictDetection(t *testing.T) {
	rt := NewRuntime()
	prog := asm.New().
		Mov(insn.R9, insn.R1).
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "nosock").
		// Branch on ctx->data_len: one arm keeps the ref in r6, the
		// other in r7.
		Load(insn.R2, insn.R9, 0, 4).
		JmpImm(insn.JmpEq, insn.R2, 0, "arm-b").
		Mov(insn.R6, insn.R0).
		MovImm(insn.R7, 0).
		Ja("cp").
		Label("arm-b").
		Mov(insn.R7, insn.R0).
		MovImm(insn.R6, 0).
		Label("cp").
		// A heap access: a C2 cancellation point reached by both arms
		// with the socket in different registers.
		Call(kernel.HelperKflexHeapBase).
		StoreImm(insn.R0, 64, 1, 8).
		// Release whichever register holds it (the compare against a
		// non-null object takes a single verified edge per arm).
		JmpImm(insn.JmpEq, insn.R6, 0, "rel-r7").
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Ja("out").
		Label("rel-r7").
		Mov(insn.R1, insn.R7).
		Call(kernel.HelperSkRelease).
		Label("out").
		Ret(0).
		Label("nosock").
		Ret(1).
		MustAssemble()
	ext, err := rt.Load(Spec{
		Name: "conflict", Insns: prog, Hook: HookXDP,
		Mode: ModeKFlex, HeapSize: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	conflict := false
	for _, cp := range ext.Report().CPs {
		for _, row := range cp.Table {
			if row.Conflict {
				conflict = true
				if len(row.Locs) < 2 {
					t.Errorf("conflict entry lists %d locations", len(row.Locs))
				}
			}
		}
	}
	if !conflict {
		t.Fatal("conflicting resource locations not flagged (§4.3 corner case)")
	}
}
