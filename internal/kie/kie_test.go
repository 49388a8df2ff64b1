package kie

import (
	"testing"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/verifier"
)

func analyze(t *testing.T, prog []insn.Instruction, mut func(*verifier.Config)) *verifier.Analysis {
	t.Helper()
	cfg := verifier.Config{
		Mode:     verifier.ModeKFlex,
		Hook:     kernel.HookBench,
		Kernel:   kernel.New(),
		HeapSize: 1 << 20,
	}
	if mut != nil {
		mut(&cfg)
	}
	an, err := verifier.Verify(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestNoInstrumentationForPureProgram(t *testing.T) {
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).
		Mov(insn.R0, insn.R2).
		Exit().
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Prog) != len(prog) {
		t.Fatalf("pure program grew: %d -> %d", len(prog), len(rep.Prog))
	}
	if rep.Probes != 0 || rep.ManipGuards != 0 || rep.FormationGuards != 0 {
		t.Errorf("unexpected instrumentation: %s", rep)
	}
}

func TestGuardInsertionAndElision(t *testing.T) {
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).  // 0: scalar from ctx
		Load(insn.R3, insn.R2, 0, 8).  // 1: formation guard (read)
		Load(insn.R4, insn.R2, 16, 8). // 2: elided? (not manipulated: static safe)
		Add(insn.R2, 1<<20).           // 3
		Load(insn.R5, insn.R2, 0, 8).  // 4: manipulation guard
		Add(insn.R2, 8).               // 5
		Load(insn.R5, insn.R2, 0, 8).  // 6: manipulated, elided
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FormationGuards != 1 {
		t.Errorf("formation guards = %d, want 1", rep.FormationGuards)
	}
	if rep.ManipGuards != 1 {
		t.Errorf("manip guards = %d, want 1", rep.ManipGuards)
	}
	if rep.ElidedGuards != 1 {
		t.Errorf("elided guards = %d, want 1", rep.ElidedGuards)
	}
	if rep.StaticSafe != 1 {
		t.Errorf("static safe = %d, want 1", rep.StaticSafe)
	}
	if rep.GuardCandidates() != 2 {
		t.Errorf("Table-3 total = %d, want 2", rep.GuardCandidates())
	}
	// Reads without sharing are performance-mode skippable.
	if rep.ReadGuards != 2 || rep.WriteGuards != 0 {
		t.Errorf("read/write guards = %d/%d, want 2/0", rep.ReadGuards, rep.WriteGuards)
	}
	// The emitted guard must immediately precede its access and target
	// the base register.
	idx1 := rep.OldToNew[1]
	if rep.Prog[idx1].Op != insn.OpGuardRd || rep.Prog[idx1].Dst != insn.R2 {
		t.Errorf("insn at %d = %v, want guard_rd(r2)", idx1, rep.Prog[idx1])
	}
	if rep.Prog[idx1+1] != prog[1] {
		t.Errorf("access not preserved after guard")
	}
}

func TestWriteGuardsNotSkippable(t *testing.T) {
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).
		StoreImm(insn.R2, 0, 1, 8). // formation guard on a write
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriteGuards != 1 || rep.ReadGuards != 0 {
		t.Fatalf("write/read guards = %d/%d", rep.WriteGuards, rep.ReadGuards)
	}
	idx := rep.OldToNew[1]
	if rep.Prog[idx].Op != insn.OpGuard {
		t.Fatalf("guard op = %v", rep.Prog[idx].Op)
	}
}

func TestSharedHeapReadGuardsNotSkippable(t *testing.T) {
	// With a shared, translated heap, read guards re-base user VAs and
	// must not be skipped in performance mode.
	prog := asm.New().
		Load(insn.R2, insn.R1, 0, 8).
		Load(insn.R3, insn.R2, 0, 8).
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, func(c *verifier.Config) { c.ShareHeap = true }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReadGuards != 0 || rep.WriteGuards != 1 {
		t.Fatalf("read/write guards = %d/%d, want 0/1", rep.ReadGuards, rep.WriteGuards)
	}
}

// TestPerfModeOmitsReadGuards: performance mode is resolved here and
// nowhere else — the read guards Instrument counts are not in the stream, so
// nothing downstream has one to skip. The stream is shorter by exactly ReadGuards, write
// guards and probes stay, and every branch still lands on a cluster start.
// A shared heap has no read guards to omit: its reads re-base user VAs.
func TestPerfModeOmitsReadGuards(t *testing.T) {
	prog := asm.New().
		Load(insn.R7, insn.R1, 8, 8).
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("loop").
		Load(insn.R6, insn.R6, 0, 8). // read through the heap base, then through what it read
		Mov(insn.R8, insn.R6).
		Store(insn.R8, 8, insn.R7, 8). // write through a copy: r6 stays unsanitized
		JmpImm(insn.JmpNe, insn.R6, 0, "loop").
		Ret(0).
		MustAssemble()
	count := func(rep *Report, op insn.Opcode) (n int) {
		for _, ins := range rep.Prog {
			if ins.Op == op {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		name         string
		perf, shared bool
		wantReadOps  bool // OpGuardRd present in the stream
	}{
		{name: "full mode emits them", wantReadOps: true},
		{name: "perf mode omits them", perf: true},
		{name: "perf mode, shared heap: guards kept", perf: true, shared: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Instrument(analyze(t, prog, func(c *verifier.Config) {
				c.PerfMode, c.ShareHeap = tc.perf, tc.shared
			}))
			if err != nil {
				t.Fatal(err)
			}
			if tc.shared {
				if rep.ReadGuards != 0 || rep.WriteGuards < 2 {
					t.Fatalf("read/write guards = %d/%d, want 0 and the load's and the store's", rep.ReadGuards, rep.WriteGuards)
				}
			} else if rep.ReadGuards == 0 || rep.WriteGuards == 0 {
				t.Fatalf("read/write guards = %d/%d, want both counted", rep.ReadGuards, rep.WriteGuards)
			}
			wantRd := 0
			if tc.wantReadOps {
				wantRd = rep.ReadGuards
			}
			rd, wr := count(rep, insn.OpGuardRd), count(rep, insn.OpGuard)
			if rd != wantRd || wr != rep.WriteGuards {
				t.Fatalf("stream holds %d read / %d write guards, want %d / %d", rd, wr, wantRd, rep.WriteGuards)
			}
			if want := len(prog) + rep.Probes + rep.XlatStores + rd + wr; len(rep.Prog) != want || rep.Probes != 1 {
				t.Fatalf("len(Prog) = %d with %d probes, want %d with 1", len(rep.Prog), rep.Probes, want)
			}
			starts := make(map[int]bool)
			for _, at := range rep.OldToNew {
				starts[at] = true
			}
			for i, ins := range rep.Prog {
				if ins.IsJump() && !starts[i+1+int(ins.Off)] {
					t.Fatalf("branch at %d lands on %d, inside a cluster", i, i+1+int(ins.Off))
				}
			}
		})
	}
}

func TestProbePlacementAndBranchFixup(t *testing.T) {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("loop").
		Load(insn.R6, insn.R6, 0, 8). // heap access inside loop
		JmpImm(insn.JmpNe, insn.R6, 0, "loop").
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 1 {
		t.Fatalf("probes = %d, want 1", rep.Probes)
	}
	// Find the probe; the back edge must branch to it... the branch
	// target is the loop head (old insn 2); the probe precedes the
	// branch (old insn 3).
	probeIdx := -1
	for i, ins := range rep.Prog {
		if ins.Op == insn.OpProbe {
			probeIdx = i
		}
	}
	if probeIdx < 0 {
		t.Fatal("no probe emitted")
	}
	if probeIdx != rep.OldToNew[3] {
		t.Errorf("probe at %d, want before old insn 3 (new %d)", probeIdx, rep.OldToNew[3])
	}
	// Branch must still target the loop head.
	br := rep.Prog[probeIdx+1]
	if !br.IsCond() {
		t.Fatalf("insn after probe = %v, want the back-edge branch", br)
	}
	target := probeIdx + 1 + 1 + int(br.Off)
	if target != rep.OldToNew[2] {
		t.Errorf("back edge targets %d, want %d", target, rep.OldToNew[2])
	}
	// The loop's heap access is a C2 CP; the probe is a C1 CP.
	var c1, c2 int
	for _, cp := range rep.CPs {
		switch cp.Kind {
		case CPLoop:
			c1++
		case CPHeap:
			c2++
		}
	}
	if c1 != 1 || c2 != 1 {
		t.Errorf("CPs: c1=%d c2=%d, want 1/1", c1, c2)
	}
}

// TestIrreducibleCycleGetsProbe: a cycle with two entries has no natural-
// loop back edge, yet it must not run unprobed. The verifier reports the
// cycle's one retreating edge (old insn 4 -> 5) and Kie plants the
// *terminate probe before its tail, with an object table to unwind by.
func TestIrreducibleCycleGetsProbe(t *testing.T) {
	prog := asm.New().
		Mov(insn.R6, insn.R1).
		Load(insn.R4, insn.R6, 8, 8). // unknown bound
		MovImm(insn.R3, 0).
		JmpImm(insn.JmpEq, insn.R4, 0, "b"). // second entry into the cycle
		Label("a").
		Add(insn.R3, 1). // 4: tail of the retreating edge
		Label("b").
		Add(insn.R3, 1).
		JmpReg(insn.JmpNe, insn.R3, insn.R4, "a").
		Ret(0).
		MustAssemble()
	an := analyze(t, prog, nil)
	rep, err := Instrument(an)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 1 {
		t.Fatalf("probes = %d, want 1", rep.Probes)
	}
	at := rep.OldToNew[4]
	if rep.Prog[at].Op != insn.OpProbe || rep.Prog[at+1] != prog[4] {
		t.Errorf("new insns %d,%d = %v, %v; want the probe, then old insn 4",
			at, at+1, rep.Prog[at], rep.Prog[at+1])
	}
	if len(rep.CPs) != 1 || rep.CPs[0].Kind != CPLoop {
		t.Errorf("CPs = %+v, want one C1 cancellation point", rep.CPs)
	}
}

func TestXlatInsertion(t *testing.T) {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Mov(insn.R7, insn.R6).
		Add(insn.R7, 64).
		Store(insn.R6, 0, insn.R7, 8). // heap-pointer store
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, func(c *verifier.Config) { c.ShareHeap = true }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.XlatStores != 1 {
		t.Fatalf("xlat stores = %d, want 1", rep.XlatStores)
	}
	idx := rep.OldToNew[4]
	if rep.Prog[idx].Op != insn.OpXlat || rep.Prog[idx].Dst != insn.R7 {
		t.Fatalf("insn at %d = %v, want xlat(r7)", idx, rep.Prog[idx])
	}
}

func TestObjectTableAttachedToCPs(t *testing.T) {
	prog := asm.New().
		Mov(insn.R9, insn.R1).
		StoreImm(insn.R10, -16, 0, 8).
		StoreImm(insn.R10, -8, 0, 8).
		Mov(insn.R1, insn.R9).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -16).
		MovImm(insn.R3, 12).
		MovImm(insn.R4, 0).
		MovImm(insn.R5, 0).
		Call(kernel.HelperSkLookup). // insn 9
		JmpImm(insn.JmpEq, insn.R0, 0, "out").
		Mov(insn.R6, insn.R0).
		Call(kernel.HelperKflexHeapBase).
		Label("loop").
		Load(insn.R0, insn.R0, 0, 8).
		JmpImm(insn.JmpNe, insn.R0, 0, "loop").
		Mov(insn.R1, insn.R6).
		Call(kernel.HelperSkRelease).
		Label("out").
		Ret(0).
		MustAssemble()
	rep, err := Instrument(analyze(t, prog, nil))
	if err != nil {
		t.Fatal(err)
	}
	withSock := 0
	for _, cp := range rep.CPs {
		for _, row := range cp.Table {
			if row.Kind == "sock" {
				withSock++
				if row.Destructor != "bpf_sk_release" {
					t.Errorf("destructor = %q", row.Destructor)
				}
			}
		}
	}
	if withSock == 0 {
		t.Fatal("no CP carries the held socket")
	}
}

func TestFactsLengthMismatch(t *testing.T) {
	an := analyze(t, asm.New().Ret(0).MustAssemble(), nil)
	an.Facts = nil
	if _, err := Instrument(an); err == nil {
		t.Fatal("mismatched analysis accepted")
	}
}
