package verifier

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/cfg"
	"kflex/internal/kernel"
)

func kflexCfg(k *kernel.Kernel) Config {
	return Config{
		Mode:     ModeKFlex,
		Hook:     kernel.HookBench,
		Kernel:   k,
		HeapSize: 1 << 20,
	}
}

func ebpfCfg(k *kernel.Kernel) Config {
	return Config{Mode: ModeEBPF, Hook: kernel.HookBench, Kernel: k}
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verification succeeded, want error containing %q", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("err = %v, want fragment %q", err, frag)
	}
}

func TestStraightLineAccepted(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		MovImm(insn.R0, 0).
		Exit().
		MustAssemble()
	an, err := Verify(prog, ebpfCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if !an.LoopsBounded || len(an.UnboundedEdges) != 0 {
		t.Error("straight-line program should be fully bounded")
	}
}

func TestUninitializedRegisterRejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Mov(insn.R0, insn.R3). // r3 never written
		Exit().
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "uninitialized register")
}

func TestExitWithoutR0Rejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().Exit().MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "r0")
}

func TestFramePointerReadOnly(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		MovImm(insn.R10, 0).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "read-only")
}

func TestUnreachableCodeRejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Ja("end").
		MovImm(insn.R0, 1).
		Label("end").
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "unreachable")
}

func TestInternalOpcodeRejected(t *testing.T) {
	k := kernel.New()
	prog := []insn.Instruction{insn.Guard(insn.R1), insn.Mov64Imm(insn.R0, 0), insn.Exit()}
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "internal opcode")
}

// TestStructuralOpcodeCheck: the walk folds `if r0 == 0` and never steps
// the instruction behind it, so only the check over the whole program can
// refuse it — as it must, since Kie and the lowering see every instruction.
// JMP32 has compares only: the walk would model a JA, CALL or EXIT sub-op
// as a jump, a call or an exit, and the VM run it as a never-taken compare.
func TestStructuralOpcodeCheck(t *testing.T) {
	for _, tc := range []struct {
		name string
		ins  insn.Instruction
		want string
	}{
		{"LD class other than LDDW", insn.Instruction{Op: insn.ClassLD | 0x30}, "unknown opcode 0x30"},
		{"LDX in a non-MEM mode", insn.Instruction{Op: insn.ClassLDX | insn.SizeDW}, "unknown opcode 0x19"},
		{"ST in ATOMIC mode", insn.Instruction{Op: insn.ClassST | insn.ModeATOMIC}, "unknown opcode 0xc2"},
		{"unassigned 32-bit ALU op", insn.Instruction{Op: insn.ClassALU | 0xe0}, "unknown opcode 0xe4"},
		{"unassigned jump op", insn.Instruction{Op: insn.ClassJMP | 0xf0}, "unknown opcode 0xf5"},
		{"JMP32 ja", insn.Instruction{Op: insn.ClassJMP32 | insn.JmpA}, "unknown opcode 0x06"},
		{"JMP32 call", insn.Instruction{Op: insn.ClassJMP32 | insn.JmpCall}, "unknown opcode 0x86"},
		{"JMP32 exit", insn.Instruction{Op: insn.ClassJMP32 | insn.JmpExit}, "unknown opcode 0x96"},
		{"call to a helper nobody registered", insn.Call(9999), "unknown helper 9999"},
		{"Kie's own opcode", insn.GuardRd(insn.R1), "internal opcode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.New()
			_, err := Verify([]insn.Instruction{
				insn.Mov64Imm(insn.R0, 0),
				insn.JmpImm(insn.JmpEq, insn.R0, 0, 1),
				tc.ins,
				insn.Exit(),
			}, kflexCfg(k))
			wantErr(t, err, "insn 2: "+tc.want)
			var verr *Error
			if !errors.As(err, &verr) {
				t.Fatalf("err = %T, want a *verifier.Error", err)
			}
		})
	}
}

// countedLoop sums n, n-1, ..., 1: its counter is a constant on every pass,
// so the walk unrolls the loop and proves that it ends.
func countedLoop(n int64) []insn.Instruction {
	return asm.New().
		MovImm(insn.R1, n).
		MovImm(insn.R2, 0).
		Label("loop").
		AddReg(insn.R2, insn.R1).
		I(insn.Alu64Imm(insn.AluSub, insn.R1, 1)).
		JmpImm(insn.JmpNe, insn.R1, 0, "loop").
		Mov(insn.R0, insn.R2).
		Exit().
		MustAssemble()
}

// ctxBoundLoop is for (i = 0; i < r2; i++) with r2 = ctx->a, masked by mask
// when it is non-zero and cut to 32 bits when it is zero.
func ctxBoundLoop(mask int32) []insn.Instruction {
	b := asm.New().Load(insn.R2, insn.R1, 8, 8)
	if mask != 0 {
		b.I(insn.Alu64Imm(insn.AluAnd, insn.R2, mask))
	} else {
		b.I(insn.Mov32Reg(insn.R2, insn.R2))
	}
	return b.MovImm(insn.R3, 0).
		Label("loop").
		JmpReg(insn.JmpGe, insn.R3, insn.R2, "out").
		I(insn.Alu64Imm(insn.AluAdd, insn.R3, 1)).
		Ja("loop").
		Label("out").
		Ret(0).
		MustAssemble()
}

func TestCountedLoopUnrolls(t *testing.T) {
	k := kernel.New()
	an, err := Verify(countedLoop(64), ebpfCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if !an.LoopsBounded {
		t.Error("counted loop should be proven bounded")
	}
}

// TestLoopBoundednessParity: in KFlex mode the walk calls a loop unbounded
// only on evidence — a revisit that refines a state still being explored, or
// one path passing a point maxUnroll times — so a loop it can unroll to the
// end gets no probe and no C1 object table. Widening every loop head after a
// few arrivals would put probes on the n = 8 and n = 64 loops here. The last
// row is the price of walking once: a loop that needs more than maxUnroll
// passes is probed, where a walk to the instruction budget would have
// unrolled it.
func TestLoopBoundednessParity(t *testing.T) {
	k := kernel.New()
	for _, tc := range []struct {
		name    string
		prog    []insn.Instruction
		bounded bool
	}{
		{"counted n=3", countedLoop(3), true},
		{"counted n=8", countedLoop(8), true},
		{"counted n=64", countedLoop(64), true},
		{"i < ctx->a & 40", ctxBoundLoop(40), true},
		{"i < (u32)ctx->a", ctxBoundLoop(0), false},
		{"counted n=300", countedLoop(300), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			an, err := Verify(tc.prog, kflexCfg(k))
			if err != nil {
				t.Fatal(err)
			}
			if an.LoopsBounded != tc.bounded {
				t.Fatalf("LoopsBounded = %v, want %v", an.LoopsBounded, tc.bounded)
			}
			if tc.bounded {
				if len(an.UnboundedEdges) != 0 || len(an.ObjTables) != 0 {
					t.Errorf("bounded loop has unbounded edges %v and object tables %v", an.UnboundedEdges, an.ObjTables)
				}
				return
			}
			edges := an.Graph.RetreatingEdges()
			if len(edges) != 1 || !slices.Equal(an.UnboundedEdges, edges) {
				t.Errorf("unbounded edges = %v, want the one retreating edge %v", an.UnboundedEdges, edges)
			}
			if _, ok := an.ObjTables[edges[0].Tail]; !ok {
				t.Errorf("no C1 object table at the tail of %v", edges[0])
			}
		})
	}
}

func TestUnboundedLoopRejectedInEBPF(t *testing.T) {
	k := kernel.New()
	// while (r1 != 0) r1 = ctx->a  -- value always unknown, no progress.
	prog := asm.New().
		Mov(insn.R6, insn.R1).
		Load(insn.R1, insn.R6, 8, 8).
		Label("loop").
		JmpImm(insn.JmpEq, insn.R1, 0, "out").
		Load(insn.R1, insn.R6, 8, 8).
		Ja("loop").
		Label("out").
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "termination")
}

func TestUnboundedLoopInstrumentedInKFlex(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Mov(insn.R6, insn.R1).
		Load(insn.R1, insn.R6, 8, 8).
		Label("loop").
		JmpImm(insn.JmpEq, insn.R1, 0, "out").
		Load(insn.R1, insn.R6, 8, 8).
		Ja("loop").
		Label("out").
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if an.LoopsBounded {
		t.Error("loop should not be proven bounded")
	}
	if len(an.UnboundedEdges) == 0 {
		t.Fatal("expected unbounded back edges for C1 instrumentation")
	}
}

func TestListWalkFactsInKFlex(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0). // r6 = heap base pointer
		Load(insn.R6, insn.R6, 0, 8).
		Label("loop").
		JmpImm(insn.JmpEq, insn.R6, 0, "out").
		Load(insn.R7, insn.R6, 0, 8). // e->key (r6 scalar after reload: formation)
		Load(insn.R6, insn.R6, 8, 8). // e = e->next
		Ja("loop").
		Label("out").
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.UnboundedEdges) == 0 {
		t.Fatal("list walk needs a cancellation probe")
	}
	// The first load through the fresh heap-base pointer is elided
	// (delta 0); the loads through reloaded pointers need formation
	// guards on at least one path.
	f2 := an.Facts[2]
	if !f2.HeapAccess || !f2.Read {
		t.Fatalf("insn 2 facts = %+v", f2)
	}
	var sawFormation, sawElided bool
	for i, f := range an.Facts {
		if !f.HeapAccess {
			continue
		}
		if f.Formation {
			sawFormation = true
		}
		if !f.Guard {
			sawElided = true
		}
		_ = i
	}
	if !sawFormation {
		t.Error("expected at least one formation guard")
	}
	if !sawElided {
		t.Error("expected at least one elided access")
	}
}

func TestHeapDerefRejectedInEBPF(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8). // ctx->op (scalar)
		Load(insn.R3, insn.R2, 0, 8). // deref scalar
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "no extension heap")
}

func TestGuardElisionWindow(t *testing.T) {
	k := kernel.New()
	// Small constant offsets after a formation guard are elided; a huge
	// accumulated delta forces a manipulation guard.
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).  // scalar from ctx
		Load(insn.R3, insn.R2, 0, 8).  // insn 1: formation guard
		Load(insn.R4, insn.R2, 16, 8). // insn 2: elided (delta 0, off 16)
		Add(insn.R2, 1<<20).           // delta beyond guard zone
		Load(insn.R5, insn.R2, 0, 8).  // insn 4: manipulation guard
		Load(insn.R5, insn.R2, 8, 8).  // insn 5: elided again (re-sanitized)
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		idx              int
		guard, formation bool
	}{
		{1, true, true},
		{2, false, false},
		{4, true, false},
		{5, false, false},
	}
	for _, c := range checks {
		f := an.Facts[c.idx]
		if !f.HeapAccess {
			t.Errorf("insn %d: not a heap access", c.idx)
			continue
		}
		if f.Guard != c.guard || f.Formation != c.formation {
			t.Errorf("insn %d: guard=%v formation=%v, want %v/%v",
				c.idx, f.Guard, f.Formation, c.guard, c.formation)
		}
	}
}

func TestSmallDeltaElided(t *testing.T) {
	k := kernel.New()
	// A bounded scalar added to a sanitized pointer stays inside the
	// guard window, so no guard is needed (the §5.4 range-analysis win).
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).                 // scalar
		Load(insn.R3, insn.R2, 0, 8).                 // formation; r2 sanitized
		Load(insn.R4, insn.R1, 8, 8).                 // ctx->a scalar
		I(insn.Alu64Imm(insn.AluAnd, insn.R4, 1023)). // bound to [0,1023]
		AddReg(insn.R2, insn.R4).
		Load(insn.R5, insn.R2, 0, 8). // delta <= 1023: elided
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if f := an.Facts[5]; !f.HeapAccess || f.Guard {
		t.Fatalf("bounded-delta access facts = %+v, want elided", f)
	}
}

func TestMallocNullCheckFlow(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		MovImm(insn.R1, 64).
		Call(kernel.HelperKflexMalloc).
		JmpImm(insn.JmpEq, insn.R0, 0, "oom").
		StoreImm(insn.R0, 0, 42, 8). // elided: fresh sanitized pointer
		Ret(0).
		Label("oom").
		Ret(1).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if f := an.Facts[3]; !f.HeapAccess || f.Guard {
		t.Fatalf("store to fresh malloc = %+v, want elided", f)
	}
}

func TestKFlexHelperRejectedInEBPF(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		MovImm(insn.R1, 64).
		Call(kernel.HelperKflexMalloc).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "requires a KFlex extension")
}

func TestCtxCompliance(t *testing.T) {
	k := kernel.New()
	// Out-of-bounds ctx read.
	prog := asm.New().
		Load(insn.R2, insn.R1, 100, 8).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "invalid ctx read")

	// Write to a read-only field.
	prog = asm.New().
		StoreImm(insn.R1, 0, 1, 8).
		Ret(0).
		MustAssemble()
	_, err = Verify(prog, ebpfCfg(k))
	wantErr(t, err, "invalid ctx write")

	// Write to the writable bench out field is fine.
	prog = asm.New().
		StoreImm(insn.R1, 24, 1, 8).
		Ret(0).
		MustAssemble()
	if _, err := Verify(prog, ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}
}

func TestStackDiscipline(t *testing.T) {
	k := kernel.New()
	// Read of uninitialized stack.
	prog := asm.New().
		Load(insn.R2, insn.R10, -8, 8).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "uninitialized stack")

	// Out-of-frame access.
	prog = asm.New().
		StoreImm(insn.R10, -520, 1, 8).
		Ret(0).
		MustAssemble()
	_, err = Verify(prog, ebpfCfg(k))
	wantErr(t, err, "invalid stack write")

	// Write then read round-trips.
	prog = asm.New().
		StoreImm(insn.R10, -8, 7, 8).
		Load(insn.R2, insn.R10, -8, 8).
		Ret(0).
		MustAssemble()
	if _, err := Verify(prog, ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}
}

func TestSpillFillPreservesPointer(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Store(insn.R10, -8, insn.R1, 8). // spill ctx
		Load(insn.R2, insn.R10, -8, 8).  // fill it back
		Load(insn.R3, insn.R2, 0, 4).    // use as ctx
		Ret(0).
		MustAssemble()
	if _, err := Verify(prog, ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}
}

func TestPartialOverwriteInvalidatesSpill(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Store(insn.R10, -8, insn.R1, 8). // spill ctx
		StoreImm(insn.R10, -6, 0, 1).    // clobber one byte
		Load(insn.R2, insn.R10, -8, 8).  // now a scalar
		Load(insn.R3, insn.R2, 0, 4).    // deref scalar -> invalid in eBPF
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "no extension heap")
}

func TestRefLeakRejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		// build a zeroed 12-byte tuple at fp-16
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		Ret(0). // leaked!
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	// The overwrite of r0 (the only copy of the acquired reference) is
	// caught eagerly: the reference can never be released afterwards.
	wantErr(t, err, "sock reference")
}

func skLookupProg(release bool) *asm.Builder {
	b := asm.New().
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "null").
		Mov(insn.R1, insn.R0)
	if release {
		b.Call(kernel.HelperSkRelease)
	}
	b.Ret(0).
		Label("null").
		Ret(1)
	return b
}

func TestAcquireReleaseAccepted(t *testing.T) {
	k := kernel.New()
	if _, err := Verify(skLookupProg(true).MustAssemble(), ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireWithoutReleaseOnLivePathRejected(t *testing.T) {
	k := kernel.New()
	_, err := Verify(skLookupProg(false).MustAssemble(), ebpfCfg(k))
	wantErr(t, err, "not released")
}

func TestDoubleReleaseRejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "null").
		Mov(insn.R6, insn.R0).
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Mov(insn.R1, insn.R6). // r6 was invalidated by the release
		Call(kernel.HelperSkRelease).
		Label("null").
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	// r6 is invalidated when the reference it held is released, so the
	// second use is caught as an uninitialized read.
	wantErr(t, err, "uninitialized register")
}

func TestTupleBufMustBeInitialized(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, ebpfCfg(k))
	wantErr(t, err, "uninitialized stack bytes")
}

func TestLockDiscipline(t *testing.T) {
	k := kernel.New()
	// Exit while holding a lock.
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R1, insn.R0).
		Call(kernel.HelperKflexSpinLock).
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, kflexCfg(k))
	wantErr(t, err, "still held at exit")

	// Unlock without lock.
	prog = asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R1, insn.R0).
		Call(kernel.HelperKflexSpinUnlock).
		Ret(0).
		MustAssemble()
	_, err = Verify(prog, kflexCfg(k))
	wantErr(t, err, "unlock without")

	// Nested locks are fine in KFlex mode (§3.1).
	prog = asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperKflexSpinLock).
		Mov(insn.R1, insn.R6).
		Add(insn.R1, 64).
		Call(kernel.HelperKflexSpinLock).
		Mov(insn.R1, insn.R6).
		Add(insn.R1, 64).
		Call(kernel.HelperKflexSpinUnlock).
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperKflexSpinUnlock).
		Ret(0).
		MustAssemble()
	if _, err := Verify(prog, kflexCfg(k)); err != nil {
		t.Fatal(err)
	}
}

func TestEBPFSingleLockRule(t *testing.T) {
	// Register an eBPF-visible lock helper to exercise the single-lock
	// restriction (§2.2: extensions can acquire only one lock today).
	k := kernel.New()
	k.Helpers.MustRegister(&kernel.HelperSpec{
		ID:     900,
		Name:   "test_spin_lock",
		Args:   []kernel.Arg{{Kind: kernel.ArgScalar}},
		Ret:    kernel.Ret{Kind: kernel.RetScalar},
		LockOp: kernel.LockAcquire,
		Impl:   func(*kernel.HelperCtx, [5]uint64) (uint64, error) { return 0, nil },
	})
	k.Helpers.MustRegister(&kernel.HelperSpec{
		ID:     901,
		Name:   "test_spin_unlock",
		Args:   []kernel.Arg{{Kind: kernel.ArgScalar}},
		Ret:    kernel.Ret{Kind: kernel.RetScalar},
		LockOp: kernel.LockRelease,
		Impl:   func(*kernel.HelperCtx, [5]uint64) (uint64, error) { return 0, nil },
	})
	two := asm.New().
		MovImm(insn.R1, 1).
		Call(900).
		MovImm(insn.R1, 2).
		Call(900).
		MovImm(insn.R1, 2).
		Call(901).
		MovImm(insn.R1, 1).
		Call(901).
		Ret(0).
		MustAssemble()
	_, err := Verify(two, ebpfCfg(k))
	wantErr(t, err, "more than one lock")
	if _, err := Verify(two, kflexCfg(k)); err != nil {
		t.Fatalf("KFlex mode should accept two locks: %v", err)
	}
}

func TestMapHelperChecks(t *testing.T) {
	k := kernel.New()
	m := &testMap{keySize: 4, valSize: 8}
	if err := k.AddMap(7, m); err != nil {
		t.Fatal(err)
	}
	good := asm.New().
		StoreImm(insn.R10, -4, 1, 4). // key
		MovImm(insn.R1, 7).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "miss").
		Load(insn.R3, insn.R0, 0, 8). // read value
		StoreImm(insn.R0, 0, 9, 4).   // write value
		Label("miss").
		Ret(0)
	if _, err := Verify(good.MustAssemble(), ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}

	// Value access out of bounds.
	bad := asm.New().
		StoreImm(insn.R10, -4, 1, 4).
		MovImm(insn.R1, 7).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "miss").
		Load(insn.R3, insn.R0, 8, 8).
		Label("miss").
		Ret(0).
		MustAssemble()
	_, err := Verify(bad, ebpfCfg(k))
	wantErr(t, err, "out of bounds")

	// Missing NULL check.
	bad = asm.New().
		StoreImm(insn.R10, -4, 1, 4).
		MovImm(insn.R1, 7).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		Load(insn.R3, insn.R0, 0, 8).
		Ret(0).
		MustAssemble()
	_, err = Verify(bad, ebpfCfg(k))
	wantErr(t, err, "NULL")

	// Unknown map ID.
	bad = asm.New().
		StoreImm(insn.R10, -4, 1, 4).
		MovImm(insn.R1, 99).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		Ret(0).
		MustAssemble()
	_, err = Verify(bad, ebpfCfg(k))
	wantErr(t, err, "no map registered")
}

type testMap struct {
	keySize, valSize int
}

func (m *testMap) KeySize() int             { return m.keySize }
func (m *testMap) ValueSize() int           { return m.valSize }
func (m *testMap) Lookup(key []byte) []byte { return nil }
func (m *testMap) Update(key, value []byte) error {
	return nil
}
func (m *testMap) Delete(key []byte) bool { return false }

func TestObjectTableAtCancellationPoints(t *testing.T) {
	k := kernel.New()
	// Acquire a socket, then run an unbounded heap-walking loop while
	// holding it, releasing after. Every CP inside the loop must carry
	// the socket in its object table.
	prog := asm.New().
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup). // insn 7: acquire
		JmpImm(insn.JmpEq, insn.R0, 0, "out").
		Mov(insn.R6, insn.R0). // hold sock in r6
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R7, insn.R0).
		Label("loop").
		Load(insn.R7, insn.R7, 0, 8). // heap access: C2 CP
		JmpImm(insn.JmpNe, insn.R7, 0, "loop").
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Label("out").
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if len(an.ObjTables) == 0 {
		t.Fatal("no object tables recorded")
	}
	found := false
	for cp, rows := range an.ObjTables {
		for _, row := range rows {
			if row.Kind == "sock" && row.Site == 7 {
				found = true
				if row.Destructor != "bpf_sk_release" {
					t.Errorf("cp %d: destructor = %q", cp, row.Destructor)
				}
				if len(row.Locs) == 0 {
					t.Errorf("cp %d: no locations", cp)
				}
			}
		}
	}
	if !found {
		t.Fatal("socket missing from object tables")
	}
}

// twoLookups starts a program that looks a socket up twice, at insns 9 and
// 20: the context saved in r9 and a zeroed tuple at fp-16, then lookup(b)
// for each call.
func twoLookups() (b *asm.Builder, lookup func(*asm.Builder) *asm.Builder) {
	b = asm.New().
		Mov(insn.R9, insn.R1).
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8)
	return b, func(b *asm.Builder) *asm.Builder {
		return b.Mov(insn.R1, insn.R9).
			Mov(insn.R2, insn.R10).
			Add(insn.R2, -16).
			MovImm(insn.R3, 12).
			MovImm(insn.R4, 0).
			MovImm(insn.R5, 0).
			Call(kernel.HelperSkLookup)
	}
}

// twoSocketProgram holds two sockets at one heap access, each in a register
// and in stack slots besides: site 9 in r6, fp-32, fp-24 and site 20 in r7,
// fp-56, fp-48, fp-40 at the load at insn 27.
func twoSocketProgram() []insn.Instruction {
	b, lookup := twoLookups()
	lookup(b). // insn 9: first socket
			JmpImm(insn.JmpEq, insn.R0, 0, "out").
			Mov(insn.R6, insn.R0).
			Store(insn.R10, -24, insn.R6, 8).
			Store(insn.R10, -32, insn.R6, 8)
	lookup(b). // insn 20: second socket
			JmpImm(insn.JmpEq, insn.R0, 0, "put1").
			Mov(insn.R7, insn.R0).
			Store(insn.R10, -40, insn.R7, 8).
			Store(insn.R10, -56, insn.R7, 8).
			Store(insn.R10, -48, insn.R7, 8).
			Call(kernel.HelperKflexHeapBase).
			Load(insn.R0, insn.R0, 0, 8). // insn 27: the cancellation point
			Mov(insn.R1, insn.R7).
			Call(kernel.HelperSkRelease).
			Label("put1").
			Mov(insn.R1, insn.R6).
			Call(kernel.HelperSkRelease).
			Label("out")
	return b.Ret(0).MustAssemble()
}

// twoLostRefsProgram holds two sockets, each last in a caller-saved register:
// the call at insn 24 clobbers both.
func twoLostRefsProgram() []insn.Instruction {
	b, lookup := twoLookups()
	lookup(b).JmpImm(insn.JmpEq, insn.R0, 0, "out").Mov(insn.R6, insn.R0)
	lookup(b).JmpImm(insn.JmpEq, insn.R0, 0, "put").
		Mov(insn.R2, insn.R0).
		Mov(insn.R1, insn.R6).
		MovImm(insn.R6, 0).
		MovImm(insn.R0, 0).
		Call(kernel.HelperKtimeGetNS).
		Label("put").
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Label("out")
	return b.Ret(0).MustAssemble()
}

// TestCloneAllocatesOnce: a state is one plain value — cloning it copies
// the struct and shares the spill and reference lists, whatever they hold.
func TestCloneAllocatesOnce(t *testing.T) {
	st := newEntryState(false)
	sock := RegState{Type: TypeObj, ObjKind: "sock", RefSite: 8}
	st.acquire(ref{Site: 8, Kind: "sock"})
	st.acquire(ref{Site: 3, Kind: "sock"})
	for off := int64(-64); off < 0; off += 8 {
		if err := st.Stack.write(off, 8, &sock); err != nil {
			t.Fatal(err)
		}
	}
	var c *state
	if n := testing.AllocsPerRun(100, func() { c = st.clone() }); n != 1 {
		t.Errorf("clone made %v allocations, want 1", n)
	}
	// What a clone changes, it changes for itself alone.
	c.release(3)
	c.Stack.markWritten(-12, 8)
	if len(st.Refs) != 2 || st.Refs[0].Site != 3 || len(st.Stack.spills) != 8 || len(c.Stack.spills) != 6 {
		t.Errorf("after the clone changed: original refs %v, %d spills; clone %d spills",
			st.Refs, len(st.Stack.spills), len(c.Stack.spills))
	}
}

func TestMonotonicAcquisitionInLoopRejected(t *testing.T) {
	k := kernel.New()
	// Acquire inside an unbounded loop without releasing: violates the
	// convergence constraint (§3.1).
	prog := asm.New().
		Mov(insn.R9, insn.R1). // save ctx
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R7, insn.R0).
		Label("loop").
		Mov(insn.R1, insn.R9).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "loop-tail").
		Store(insn.R10, -24, insn.R0, 8). // keep it somewhere
		Label("loop-tail").
		Load(insn.R7, insn.R7, 0, 8).
		JmpImm(insn.JmpNe, insn.R7, 0, "loop").
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, kflexCfg(k))
	if err == nil {
		t.Fatal("monotonic acquisition accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "converge") && !strings.Contains(msg, "monotonically") &&
		!strings.Contains(msg, "not released") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestStoringKernelPointerIntoHeapRejected(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Mov(insn.R6, insn.R1). // ctx survives the call in r6
		Call(kernel.HelperKflexHeapBase).
		Store(insn.R0, 0, insn.R6, 8). // store ctx pointer into heap
		Ret(0).
		MustAssemble()
	_, err := Verify(prog, kflexCfg(k))
	wantErr(t, err, "leaks kernel state")
}

func TestTranslateOnStoreFacts(t *testing.T) {
	k := kernel.New()
	cfgShare := kflexCfg(k)
	cfgShare.ShareHeap = true
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Mov(insn.R7, insn.R6).
		Add(insn.R7, 64).
		Store(insn.R6, 0, insn.R7, 8). // stores a heap pointer
		StoreImm(insn.R6, 8, 5, 8).    // stores a scalar
		Ret(0).
		MustAssemble()
	an, err := Verify(prog, cfgShare)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Facts[4].StoresHeapPtr {
		t.Error("heap-pointer store not flagged for translation")
	}
	if an.Facts[5].StoresHeapPtr {
		t.Error("scalar store wrongly flagged")
	}
	// Without sharing, no translation facts.
	an2, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if an2.Facts[4].StoresHeapPtr {
		t.Error("translation fact without ShareHeap")
	}
}

func TestCallbackVerification(t *testing.T) {
	k := kernel.New()
	// A valid callback: scalar in r1, returns a derived code.
	cb := asm.New().
		Mov(insn.R0, insn.R1).
		I(insn.Alu64Imm(insn.AluAnd, insn.R0, 0xff)).
		Exit().
		MustAssemble()
	cfg := Config{Mode: ModeEBPF, Kernel: k, ScalarR1: true}
	if _, err := Verify(cb, cfg); err != nil {
		t.Fatal(err)
	}
	// Callbacks may not loop unboundedly.
	bad := asm.New().
		Label("spin").
		JmpImm(insn.JmpNe, insn.R1, 0, "spin").
		Ret(0).
		MustAssemble()
	if _, err := Verify(bad, cfg); err == nil {
		t.Fatal("unbounded callback accepted")
	}
}

func TestAtomicsOnHeap(t *testing.T) {
	k := kernel.New()
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		MovImm(insn.R2, 1).
		I(insn.Atomic(insn.AtomicAdd, insn.R0, 0, insn.R2, 8)).
		I(insn.Atomic(insn.AtomicXchg, insn.R0, 8, insn.R2, 8)).
		MovImm(insn.R0, 0).
		Exit().
		MustAssemble()
	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatal(err)
	}
	if !an.Facts[2].HeapAccess || an.Facts[2].Read {
		t.Errorf("atomic facts = %+v", an.Facts[2])
	}
	// Misuse: 2-byte atomic.
	bad := asm.New().
		Call(kernel.HelperKflexHeapBase).
		MovImm(insn.R2, 1).
		I(insn.Atomic(insn.AtomicAdd, insn.R0, 0, insn.R2, 2)).
		Ret(0).
		MustAssemble()
	_, err = Verify(bad, kflexCfg(k))
	wantErr(t, err, "4- or 8-byte")
}

func TestDivModByZeroAccepted(t *testing.T) {
	k := kernel.New()
	// Unguarded division is legal; the runtime defines /0 and %0.
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).
		MovImm(insn.R3, 100).
		I(insn.Alu64Reg(insn.AluDiv, insn.R3, insn.R2)).
		I(insn.Alu64Reg(insn.AluMod, insn.R3, insn.R2)).
		Mov(insn.R0, insn.R3).
		Exit().
		MustAssemble()
	if _, err := Verify(prog, ebpfCfg(k)); err != nil {
		t.Fatal(err)
	}
}

// nonConvergingLoop is a two-entry (irreducible) cycle whose counter is
// compared against an unknown bound, so no unrolled iteration ever refines
// an earlier one:
//
//	0: r6 = r1
//	1: r4 = ctx->a            (unknown)
//	2: r3 = 0
//	3: if r4 == 0 goto 5      (second entry into the cycle)
//	4: r3 += 1
//	5: r3 += 1
//	6: if r3 != r4 goto 4
//	7: r0 = 0
//	8: exit
//
// The only retreating edge is 4→5: no node of the cycle dominates the
// others, so a dominator-based back-edge test finds no loop here at all.
func nonConvergingLoop() []insn.Instruction {
	return asm.New().
		Mov(insn.R6, insn.R1).
		Load(insn.R4, insn.R6, 8, 8).
		MovImm(insn.R3, 0).
		JmpImm(insn.JmpEq, insn.R4, 0, "b").
		Label("a").
		I(insn.Alu64Imm(insn.AluAdd, insn.R3, 1)).
		Label("b").
		I(insn.Alu64Imm(insn.AluAdd, insn.R3, 1)).
		JmpReg(insn.JmpNe, insn.R3, insn.R4, "a").
		Ret(0).
		MustAssemble()
}

// TestNonConvergingLoopFallsBackInBoundedSpace: no unrolled iteration of
// the loop above refines an earlier one. In eBPF mode the walk unrolls it
// until the instruction budget, with at most maxVisited states kept per merge
// point (keeping every in-progress state took minutes and hundreds of MB).
// In KFlex mode the walk calls the loop unbounded once one path has passed a
// point maxUnroll times and widens from there, in a few hundred steps: a walk
// that ran to the budget first would fail the step bound below.
func TestNonConvergingLoopFallsBackInBoundedSpace(t *testing.T) {
	k := kernel.New()
	prog := nonConvergingLoop()

	_, err := Verify(prog, ebpfCfg(k))
	if !errors.Is(err, ErrTooComplex) && !errors.Is(err, ErrUnboundedLoop) {
		t.Fatalf("eBPF mode: err = %v, want ErrTooComplex or ErrUnboundedLoop", err)
	}

	an, err := Verify(prog, kflexCfg(k))
	if err != nil {
		t.Fatalf("KFlex mode: %v", err)
	}
	if an.LoopsBounded {
		t.Error("loop reported bounded")
	}
	if len(an.UnboundedEdges) != 1 || an.UnboundedEdges[0] != (cfg.BackEdge{Tail: 4, Head: 5}) {
		t.Errorf("unbounded edges = %v, want [4->5]", an.UnboundedEdges)
	}
	if an.StatesExplored >= 4096 {
		t.Errorf("KFlex mode took %d steps, want < 4096", an.StatesExplored)
	}
}

// TestRememberKeepsListBounded pins the retention rule the test above
// relies on: a merge point's list never exceeds maxVisited, completed
// states are evicted before ancestors, and an evicted entry lets go of its
// state although its frame still references the entry.
func TestRememberKeepsListBounded(t *testing.T) {
	var list []*visitedState
	var all []*visitedState
	for i := 0; i < 10*maxVisited; i++ {
		vs := &visitedState{st: newEntryState(false), inProgress: true}
		all = append(all, vs)
		list = remember(list, vs)
		if len(list) > maxVisited {
			t.Fatalf("list grew to %d after %d in-progress arrivals", len(list), i+1)
		}
	}
	kept := 0
	for i, vs := range all {
		if vs.st != nil {
			kept++
			if i < len(all)-maxVisited {
				t.Errorf("arrival %d kept; only the newest %d ancestors should be", i, maxVisited)
			}
		}
	}
	if kept != maxVisited {
		t.Errorf("%d states retained, want %d", kept, maxVisited)
	}

	// A completed entry goes before any ancestor, wherever it sits.
	done := list[maxVisited/2]
	done.inProgress = false
	oldest := list[0]
	list = remember(list, &visitedState{st: newEntryState(false), inProgress: true})
	if done.st != nil || oldest.st == nil {
		t.Error("eviction took an ancestor while a completed state was listed")
	}
}
