package compile_test

import (
	"slices"
	"strings"
	"testing"

	"kflex/insn"
	"kflex/internal/compile"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/kie"
	"kflex/internal/refsem"
	"kflex/internal/vm"
)

// lower is a shorthand over a raw instrumented stream. Every lowering a
// test makes passes translation validation.
func lower(t *testing.T, prog []insn.Instruction) *compile.Unit {
	t.Helper()
	u, err := compile.Lower(&kie.Report{Prog: prog})
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := compile.Validate(prog, u); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return u
}

func ops(u *compile.Unit) []compile.Op {
	out := make([]compile.Op, len(u.Code))
	for i, ins := range u.Code {
		out[i] = ins.Op
	}
	return out
}

// TestFusion covers each cluster kind and the cases where a join must be
// refused. Every row also runs on the lowered code and on the reference
// semantics, which must agree.
func TestFusion(t *testing.T) {
	cases := []struct {
		name string
		prog []insn.Instruction
		want []compile.Op
		m    compile.Metrics
	}{
		{
			name: "guard+load fuses",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.LoadMem(insn.R2, insn.R1, 0, 8),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuardLoad, compile.OpExit},
			m:    compile.Metrics{FusedGuardLoad: 1},
		},
		{
			name: "read-guard+load fuses",
			prog: []insn.Instruction{
				insn.GuardRd(insn.R1),
				insn.LoadMem(insn.R2, insn.R1, 8, 4),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuardRdLoad, compile.OpExit},
			m:    compile.Metrics{FusedGuardLoad: 1},
		},
		{
			name: "guard+store-reg fuses",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.StoreMem(insn.R1, 0, insn.R2, 8),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuardStoreReg, compile.OpExit},
			m:    compile.Metrics{FusedGuardStore: 1},
		},
		{
			name: "guard+store-imm fuses",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.StoreImm(insn.R1, 4, 99, 4),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuardStoreImm, compile.OpExit},
			m:    compile.Metrics{FusedGuardStore: 1},
		},
		{
			name: "guard does not fuse with an R10-relative load",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.LoadMem(insn.R2, insn.R10, -8, 8), // spill reload, not the guarded access
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuard, compile.OpLoad, compile.OpExit},
		},
		{
			name: "guard does not fuse with a store through another register",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.StoreMem(insn.R2, 0, insn.R3, 8),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuard, compile.OpStoreReg, compile.OpExit},
		},
		{
			name: "guard does not fuse with an atomic",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.Atomic(0, insn.R1, 0, insn.R2, 8), // ATOMIC_ADD
				insn.Exit(),
			},
			want: []compile.Op{compile.OpGuard, compile.OpAtomic, compile.OpExit},
		},
		{
			name: "branch target between the pair prevents fusion",
			prog: []insn.Instruction{
				insn.JmpImm(insn.JmpEq, insn.R3, 0, 1), // -> the load, skipping the guard
				insn.Guard(insn.R1),
				insn.LoadMem(insn.R2, insn.R1, 0, 8),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpJcc64Imm, compile.OpGuard, compile.OpLoad, compile.OpExit},
		},
		{
			name: "probe at pc 0 fuses with its back-edge ja",
			prog: []insn.Instruction{
				insn.Probe(0),
				insn.Ja(-2), // back to the probe
				insn.Exit(),
			},
			want: []compile.Op{compile.OpProbeJa, compile.OpExit},
			m:    compile.Metrics{FusedProbeBranch: 1},
		},
		{
			name: "probe fuses with a conditional back edge",
			prog: []insn.Instruction{
				insn.Mov64Imm(insn.R1, 4),
				insn.Probe(0),
				insn.JmpImm(insn.JmpNe, insn.R1, 0, -3), // -> insn 0
				insn.Exit(),
			},
			want: []compile.Op{compile.OpMov64Imm, compile.OpProbeJcc, compile.OpExit},
			m:    compile.Metrics{FusedProbeBranch: 1},
		},
		{
			name: "load+branch fuses",
			prog: []insn.Instruction{
				insn.LoadMem(insn.R2, insn.R1, 8, 8),
				insn.JmpImm(insn.JmpEq, insn.R2, 0, 1),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpLoadJcc, compile.OpMov64Imm, compile.OpExit},
			m:    compile.Metrics{FusedLoadBranch: 1},
		},
		{
			name: "guard+load+branch fuses and still counts a guard+load",
			prog: []insn.Instruction{
				insn.Guard(insn.R1),
				insn.LoadMem(insn.R2, insn.R1, 0, 8),
				insn.JmpReg(insn.JmpNe, insn.R2, insn.R3, 1),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpLoadJcc, compile.OpMov64Imm, compile.OpExit},
			m:    compile.Metrics{FusedGuardLoad: 1, FusedLoadBranch: 1},
		},
		{
			name: "load+branch fuses with a 32-bit compare",
			prog: []insn.Instruction{
				insn.LoadMem(insn.R2, insn.R1, 0, 4),
				insn.Jmp32Imm(insn.JmpSlt, insn.R2, -1, 1),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpLoadJcc, compile.OpMov64Imm, compile.OpExit},
			m:    compile.Metrics{FusedLoadBranch: 1},
		},
		{
			name: "load+branch refused when the branch is a target",
			prog: []insn.Instruction{
				insn.JmpImm(insn.JmpEq, insn.R3, 0, 1), // -> the branch
				insn.LoadMem(insn.R2, insn.R1, 0, 8),
				insn.JmpImm(insn.JmpEq, insn.R2, 0, 1),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpJcc64Imm, compile.OpLoad, compile.OpJcc64Imm, compile.OpMov64Imm, compile.OpExit},
		},
		{
			name: "load+branch refused when the branch compares another register",
			prog: []insn.Instruction{
				insn.LoadMem(insn.R2, insn.R1, 0, 8),
				insn.JmpImm(insn.JmpEq, insn.R3, 0, 1),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpLoad, compile.OpJcc64Imm, compile.OpMov64Imm, compile.OpExit},
		},
		{
			name: "move folds into the alu-immediate op after it",
			prog: []insn.Instruction{
				insn.Mov64Reg(insn.R0, insn.R1),
				insn.Alu64Imm(insn.AluXor, insn.R0, 0x55),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpXor64Imm, compile.OpExit},
			m:    compile.Metrics{FusedThreeAddr: 1},
		},
		{
			name: "64-bit move folds into a 32-bit op",
			prog: []insn.Instruction{
				insn.Mov64Reg(insn.R0, insn.R1),
				insn.Alu32Imm(insn.AluAdd, insn.R0, 7),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAdd32Imm, compile.OpExit},
			m:    compile.Metrics{FusedThreeAddr: 1},
		},
		{
			name: "32-bit move does not fold into a 64-bit op",
			prog: []insn.Instruction{
				insn.Mov32Reg(insn.R0, insn.R1),
				insn.Alu64Imm(insn.AluAdd, insn.R0, 7),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpMov32Reg, compile.OpAdd64Imm, compile.OpExit},
		},
		{
			name: "move does not fold into a guard",
			prog: []insn.Instruction{
				insn.Mov64Reg(insn.R2, insn.R1),
				insn.Guard(insn.R2),
				insn.Mov64Imm(insn.R0, 0),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpMov64Reg, compile.OpGuard, compile.OpMov64Imm, compile.OpExit},
		},
		{
			name: "move fold refused when the op is a target",
			prog: []insn.Instruction{
				insn.JmpImm(insn.JmpEq, insn.R3, 0, 1), // -> the add
				insn.Mov64Reg(insn.R0, insn.R1),
				insn.Alu64Imm(insn.AluAdd, insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpJcc64Imm, compile.OpMov64Reg, compile.OpAdd64Imm, compile.OpExit},
		},
		{
			name: "base+displacement+index fuses",
			prog: []insn.Instruction{
				insn.Alu64Imm(insn.AluAdd, insn.R0, 16),
				insn.Alu64Reg(insn.AluAdd, insn.R0, insn.R1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAdd64Idx, compile.OpExit},
			m:    compile.Metrics{FusedThreeAddr: 1},
		},
		{
			name: "base+displacement+index refused when the index is the destination",
			prog: []insn.Instruction{
				insn.Alu64Imm(insn.AluAdd, insn.R0, 16),
				insn.Alu64Reg(insn.AluAdd, insn.R0, insn.R0),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAdd64Imm, compile.OpAdd64Reg, compile.OpExit},
		},
		{
			name: "and+lsh fuses",
			prog: []insn.Instruction{
				insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
				insn.Alu64Imm(insn.AluLsh, insn.R0, 3),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAndLsh64, compile.OpExit},
			m:    compile.Metrics{FusedScaledIndex: 1},
		},
		{
			name: "and+lsh refused on two registers",
			prog: []insn.Instruction{
				insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
				insn.Alu64Imm(insn.AluLsh, insn.R1, 3),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAnd64Imm, compile.OpLsh64Imm, compile.OpExit},
		},
		{
			name: "and+lsh refused when the shift is a target",
			prog: []insn.Instruction{
				insn.JmpImm(insn.JmpEq, insn.R3, 0, 1), // -> the shift
				insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
				insn.Alu64Imm(insn.AluLsh, insn.R0, 3),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpJcc64Imm, compile.OpAnd64Imm, compile.OpLsh64Imm, compile.OpExit},
		},
		{
			name: "the skiplist slot address is two dispatches",
			prog: []insn.Instruction{
				insn.Mov64Reg(insn.R0, insn.R4),
				insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
				insn.Alu64Imm(insn.AluLsh, insn.R0, 3),
				insn.Mov64Reg(insn.R2, insn.R1),
				insn.Alu64Imm(insn.AluAdd, insn.R2, 16),
				insn.Alu64Reg(insn.AluAdd, insn.R2, insn.R0),
				insn.Mov64Reg(insn.R0, insn.R2),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpAndLsh64, compile.OpAdd64Idx, compile.OpMov64Reg, compile.OpExit},
			m:    compile.Metrics{FusedThreeAddr: 3, FusedScaledIndex: 1},
		},
		{
			name: "probe followed by a non-jump stays unfused",
			prog: []insn.Instruction{
				insn.Probe(0),
				insn.Mov64Imm(insn.R0, 1),
				insn.Exit(),
			},
			want: []compile.Op{compile.OpProbe, compile.OpMov64Imm, compile.OpExit},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := lower(t, tc.prog)
			got := ops(u)
			if len(got) != len(tc.want) {
				t.Fatalf("lowered ops = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("lowered op[%d] = %v, want %v (full: %v)", i, got[i], tc.want[i], tc.want)
				}
			}
			tc.m.SrcInsns = len(tc.prog)
			tc.m.LoweredInsns = len(tc.want)
			if u.Metrics != tc.m {
				t.Fatalf("metrics = %+v, want %+v", u.Metrics, tc.m)
			}
			ref, lowered := runBoth(t, tc.prog, 1000)
			assertSameResult(t, ref, lowered)
		})
	}
}

// TestPreResolvedOperands checks that lowering folds operand work a
// decoding loop would redo per dispatch: masked shifts and the two-slot LDDW.
func TestPreResolvedOperands(t *testing.T) {
	u := lower(t, []insn.Instruction{
		insn.Alu64Imm(insn.AluLsh, insn.R1, 67), // 67 & 63 = 3
		insn.Alu32Imm(insn.AluRsh, insn.R2, 35), // 35 & 31 = 3
		insn.LoadImm(insn.R3, 0xdeadbeefcafe),
		insn.Exit(),
	})
	if u.Code[0].Op != compile.OpLsh64Imm || u.Code[0].Imm != 3 {
		t.Fatalf("lsh64: %+v, want pre-masked Imm 3", u.Code[0])
	}
	if u.Code[1].Op != compile.OpRsh32Imm || u.Code[1].Imm != 3 {
		t.Fatalf("rsh32: %+v, want pre-masked Imm 3", u.Code[1])
	}
	// LDDW (two encoded slots) is one decoded instruction and one lowered
	// dispatch carrying the full 64-bit constant.
	if u.Code[2].Op != compile.OpMov64Imm || u.Code[2].Imm != 0xdeadbeefcafe {
		t.Fatalf("lddw: %+v, want OpMov64Imm with the full constant", u.Code[2])
	}
}

func TestLinkUnknownHelper(t *testing.T) {
	u := &compile.Unit{HelperIDs: []int32{9999}}
	_, err := u.Link(compile.Linkage{Helpers: kernel.NewRegistry()})
	if err == nil || !strings.Contains(err.Error(), "unknown helper 9999") {
		t.Fatalf("Link err = %v, want unknown helper 9999", err)
	}
}

func TestLowerRejectsOutOfRangeBranch(t *testing.T) {
	_, err := compile.Lower(&kie.Report{Prog: []insn.Instruction{
		insn.Ja(5),
		insn.Exit(),
	}})
	if err == nil || !strings.Contains(err.Error(), "branch target") {
		t.Fatalf("Lower err = %v, want branch-target error", err)
	}
}

// runBoth executes one instrumented stream on the lowered code and on the
// reference semantics, each against identical fresh state, and returns both
// results. Run's error must be nil on both (cancelled invocations report
// through Result), and both must leave the same heap image.
func runBoth(t *testing.T, prog []insn.Instruction, quantum uint64) (ref refsem.Result, lowered vm.Result) {
	t.Helper()
	var hs [2]*heap.Heap
	for i := range hs {
		h, err := heap.New(1 << 16)
		if err != nil {
			t.Fatalf("heap: %v", err)
		}
		hs[i] = h
	}
	k, h := kernel.New(), hs[0]
	linked, err := lower(t, prog).Link(compile.Linkage{
		HeapBase: h.ExtBase(), HeapMask: h.Mask(), UserBase: h.UserBase(), Helpers: k.Helpers,
	})
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	p, err := vm.New(vm.Options{Hook: kernel.HookBench, Kernel: k, Heap: h, QuantumInsns: quantum, Lowered: linked})
	if err != nil {
		t.Fatalf("vm.New: %v", err)
	}
	if lowered, err = p.NewExec(0).Run(nil, make([]byte, kernel.HookBench.CtxSize)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	m, err := refsem.New(refsem.Config{Prog: prog, Hook: kernel.HookBench, Kernel: kernel.New(), Heap: hs[1], Quantum: quantum})
	if err != nil {
		t.Fatalf("refsem.New: %v", err)
	}
	if ref, err = m.Run(nil, make([]byte, kernel.HookBench.CtxSize)); err != nil {
		t.Fatalf("refsem Run: %v", err)
	}
	if err := refsem.DiffHeaps(hs[1], h); err != nil {
		t.Fatalf("heap images diverge: %v", err)
	}
	return ref, lowered
}

// refOf is the part of a lowered Result the reference semantics defines:
// all of it but Dispatches and Fused.
func refOf(r vm.Result) refsem.Result {
	s := r.Stats
	out := refsem.Result{Ret: r.Ret, Cancelled: refsem.Cancel(r.Cancelled.String()),
		Stats: refsem.Stats{Insns: s.Insns, Guards: s.Guards, GuardsRead: s.GuardsRead, Probes: s.Probes, HelperCalls: s.HelperCalls}}
	if r.Abort != nil {
		out.PC = r.Abort.PC
	}
	return out
}

func assertSameResult(t *testing.T, ref refsem.Result, lowered vm.Result) {
	t.Helper()
	if got := refOf(lowered); got != ref {
		t.Fatalf("lowered code diverges from the reference semantics:\nreference: %+v\nlowered:   %+v", ref, got)
	}
}

// TestFusedFaultMidPair faults the access of a cluster: the guard
// sanitizes into the heap, the access lands on an unpopulated page. The
// lowered code and the reference semantics must attribute the abort to the
// access instruction's PC and agree on the work counters at the point of cancellation: the guard and the
// access retired, a branch after them did not.
func TestFusedFaultMidPair(t *testing.T) {
	for _, tc := range []struct {
		name   string
		access []insn.Instruction
	}{
		{"guard+store", []insn.Instruction{insn.StoreMem(insn.R1, 0, insn.R2, 8)}},
		{"guard+load+branch", []insn.Instruction{
			insn.LoadMem(insn.R2, insn.R1, 0, 8),
			insn.JmpImm(insn.JmpEq, insn.R2, 0, 1),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := []insn.Instruction{
				insn.Mov64Imm(insn.R1, 8192), // an unpopulated heap page
				insn.Guard(insn.R1),
			}
			prog = append(prog, tc.access...) // pc 2: the faulting access
			prog = append(prog, insn.Mov64Imm(insn.R0, 7), insn.Exit())
			ref, lowered := runBoth(t, prog, 0)
			assertSameResult(t, ref, lowered)
			if lowered.Abort == nil || lowered.Abort.PC != 2 || lowered.Cancelled != vm.CancelFault {
				t.Fatalf("abort = %+v (%v), want a heap fault at pc 2 (the clustered access)", lowered.Abort, lowered.Cancelled)
			}
			if lowered.Stats.Insns != 3 || lowered.Stats.Dispatches != 2 {
				t.Fatalf("stats = %+v, want 3 insns retired in 2 dispatches", lowered.Stats)
			}
		})
	}
}

// TestFusedProbeQuantum spins a probe+ja self-loop at pc 0 until the
// instruction quantum trips. The abort must name the probe's PC, and the
// lowered code must count the instructions and probes the reference
// semantics counts at cancellation.
func TestFusedProbeQuantum(t *testing.T) {
	prog := []insn.Instruction{
		insn.Probe(0), // pc 0: also the branch target
		insn.Ja(-2),
		insn.Exit(),
	}
	ref, lowered := runBoth(t, prog, 100)
	assertSameResult(t, ref, lowered)
	if lowered.Abort == nil || lowered.Abort.PC != 0 {
		t.Fatalf("abort = %+v, want terminate at pc 0 (the probe)", lowered.Abort)
	}
	if lowered.Cancelled != vm.CancelTerminate {
		t.Fatalf("cancelled = %v, want %v", lowered.Cancelled, vm.CancelTerminate)
	}
	if lowered.Stats.Probes == 0 || lowered.Stats.Insns <= 100 {
		t.Fatalf("stats = %+v, want the quantum to have tripped via probes", lowered.Stats)
	}
}

// TestFusedGuardLoadRuns executes a successful fused load round trip:
// store then load back through guarded heap pointers.
func TestFusedGuardLoadRuns(t *testing.T) {
	prog := []insn.Instruction{
		insn.Mov64Imm(insn.R1, 0), // page 0 is populated at load
		insn.Guard(insn.R1),
		insn.StoreImm(insn.R1, 8, 4242, 8),
		insn.Mov64Imm(insn.R2, 0),
		insn.Guard(insn.R2),
		insn.LoadMem(insn.R0, insn.R2, 8, 8),
		insn.Exit(),
	}
	ref, lowered := runBoth(t, prog, 0)
	assertSameResult(t, ref, lowered)
	if lowered.Ret != 4242 {
		t.Fatalf("ret = %d, want 4242", lowered.Ret)
	}
	if lowered.Stats.Fused != 2 {
		t.Fatalf("stats = %+v, want 2 fused dispatches (guard+store, guard+load)", lowered.Stats)
	}
}

// TestValidateRejectsCorruptUnits hand-corrupts a valid Unit that holds
// every cluster kind, one row per rule of Validate.
func TestValidateRejectsCorruptUnits(t *testing.T) {
	prog := []insn.Instruction{
		insn.Mov64Imm(insn.R1, 0), // 0
		insn.Guard(insn.R1),       // 1: guard+load+branch -> 10
		insn.LoadMem(insn.R2, insn.R1, 8, 8),
		insn.JmpImm(insn.JmpNe, insn.R2, 0, 6),
		insn.Mov64Reg(insn.R0, insn.R4), // 4: scaled index
		insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
		insn.Alu64Imm(insn.AluLsh, insn.R0, 3),
		insn.Mov64Reg(insn.R3, insn.R1), // 7: base+displacement+index
		insn.Alu64Imm(insn.AluAdd, insn.R3, 16),
		insn.Alu64Reg(insn.AluAdd, insn.R3, insn.R0),
		insn.Guard(insn.R1), // 10: guard+store
		insn.StoreMem(insn.R1, 0, insn.R3, 8),
		insn.Guard(insn.R1), // 12: a guard alone before its atomic
		insn.Atomic(0, insn.R1, 0, insn.R2, 8),
		insn.Mov64Imm(insn.R0, 0),
		insn.Exit(),
	}
	base := lower(t, prog)
	// Lowered: 0 mov, 1 guard+load+branch, 2 and+lsh, 3 add-index,
	// 4 guard+store, 5 guard, 6 atomic, 7 mov, 8 exit.
	if got := len(base.Code); got != 9 {
		t.Fatalf("lowered %d insns, want 9: %v", got, ops(base))
	}
	for _, tc := range []struct {
		name   string
		mutate func(u *compile.Unit)
		want   string
	}{
		{"coverage: clusters swapped", func(u *compile.Unit) {
			u.Code[2], u.Code[3] = u.Code[3], u.Code[2]
			u.PCMap[2], u.PCMap[3] = u.PCMap[3], u.PCMap[2]
		}, "does not continue coverage"},
		{"coverage: a member dropped", func(u *compile.Unit) { u.Code[2].N = 2 }, "does not continue coverage"},
		{"coverage: two clusters merged", func(u *compile.Unit) {
			u.Code[2].N = 6
			u.Code = append(u.Code[:3], u.Code[4:]...)
			u.PCMap = append(u.PCMap[:3], u.PCMap[4:]...)
		}, "does not continue coverage"},
		{"coverage: unjoined members", func(u *compile.Unit) {
			u.Code[6].N = 2 // the atomic and the mov after it
			u.Code = append(u.Code[:7], u.Code[8:]...)
			u.PCMap = append(u.PCMap[:7], u.PCMap[8:]...)
		}, "is not joined"},
		{"coverage: opcode retires another length", func(u *compile.Unit) { u.Code[1].Form &^= compile.FormGuard | compile.FormGuardRd }, "retires"},
		{"branch: target moved", func(u *compile.Unit) { u.Code[1].Target++ }, "target"},
		{"guard: another register", func(u *compile.Unit) { u.Code[4].Dst = uint8(insn.R5) }, "guard of insn 10"},
		{"guard: dropped", func(u *compile.Unit) { u.Code[5].Op = compile.OpNeg64 }, "guard of insn 12"},
		{"guard: read guard for a write guard", func(u *compile.Unit) { u.Code[5].Op = compile.OpGuardRd }, "guard of insn 12"},
		{"pcmap: cluster start moved", func(u *compile.Unit) { u.PCMap[3]++ }, "does not continue coverage"},
		{"pcmap: fault attributed to the guard", func(u *compile.Unit) { u.Code[1].OrigPC = 1 }, "OrigPC"},
		{"metrics: a join miscounted", func(u *compile.Unit) { u.Metrics.FusedLoadBranch++ }, "metrics"},
		{"metrics: lowered length", func(u *compile.Unit) { u.Metrics.LoweredInsns-- }, "metrics"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := *base
			u.Code = slices.Clone(base.Code)
			u.PCMap = slices.Clone(base.PCMap)
			tc.mutate(&u)
			err := compile.Validate(prog, &u)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
