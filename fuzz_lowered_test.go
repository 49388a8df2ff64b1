package kflex_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/compile"
	"kflex/internal/ds"
	"kflex/internal/kie"
	"kflex/internal/refsem"
	"kflex/internal/verifier"
)

// FuzzLoweredEquivalence feeds arbitrary byte strings through the decoder
// and, whenever the verifier accepts the program, runs it on the lowered
// code and on the reference semantics. Every program the verifier accepts
// must lower and link, and the two must produce identical results, context
// writes, aborts, work counters (Dispatches and Fused aside) and heap
// images — the fuzzing arm of the differential harness.
//
// Determinism: each side gets its own Runtime, so the per-kernel helper
// state (prandom stream, ktime tick counter) replays identically; the
// instruction quantum bounds unbounded loops the verifier admitted. shared
// maps the heap into user space, so Kie arms translate-on-store before
// every heap pointer stored into the heap. Every lowering passes
// compile.Validate.
func FuzzLoweredEquivalence(f *testing.F) {
	for _, kind := range ds.Kinds {
		if raw, err := insn.Encode(ds.Program(kind)); err == nil {
			f.Add(raw, uint64(1), uint64(2), false)
			if kind == ds.KindSkipList {
				f.Add(raw, uint64(1), uint64(2), true) // Xlat-armed stores
			}
		}
	}
	for _, prog := range clusterSeeds() {
		raw, err := insn.Encode(prog)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint64(3), uint64(0), false)
	}
	// Arithmetic on a guarded pointer returns a value computed from the
	// heap base, so the two sides agree only because their heaps, one per
	// Runtime, sit at the one base of their size.
	raw, err := insn.Encode([]insn.Instruction{
		insn.LoadMem(insn.R0, insn.R1, 8, 8),
		insn.StoreImm(insn.R0, 48, 7, 4),
		insn.Alu64Imm(insn.AluDiv, insn.R0, 3),
		insn.Exit(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint64(1), uint64(0), false)
	// The same store through a pointer with the heap's top offset bit set:
	// folded with the heap's mask it lands on an unpopulated page and
	// faults, so a fold that drops that bit (and lands on the terminate
	// word's page) shows.
	f.Add(raw, uint64(1)<<15, uint64(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, key, val uint64, shared bool) {
		prog, err := insn.Decode(raw)
		if err != nil {
			t.Skip()
		}
		spec := kflex.Spec{
			Name:            "fuzz",
			Insns:           prog,
			Hook:            kflex.HookBench,
			Mode:            kflex.ModeKFlex,
			HeapSize:        1 << 16,
			ShareHeap:       shared,
			QuantumInsns:    50_000,
			CancelThreshold: kflex.CancelNever,
		}
		el := loadVerified(t, spec)
		if el == nil {
			t.Skip() // rejected by the verifier
		}
		if err := el.ValidateLowering(); err != nil {
			t.Fatalf("%v\nprog:\n%s", err, insn.Disassemble(prog))
		}
		er, ref, err := loadRef(t, spec)
		if err != nil {
			t.Fatalf("second load: %v", err)
		}

		ctxR := make([]byte, kflex.HookBench.CtxSize)
		ctxL := make([]byte, kflex.HookBench.CtxSize)
		for i := 0; i < 8; i++ {
			copy(ctxR[8:16], ctxBytes(key+uint64(i)))
			copy(ctxR[16:24], ctxBytes(val))
			copy(ctxL, ctxR)
			rr, errR := ref.Run(nil, ctxR)
			rl, errL := el.Handle(0).Run(nil, ctxL)
			what := fmt.Sprintf("run %d of\n%s", i, insn.Disassemble(prog))
			sameAsRef(t, what, rr, errR, rl, errL)
			if errL != nil {
				return // both retired or erred alike
			}
			if !bytes.Equal(ctxR, ctxL) {
				t.Fatalf("run %d: ctx writes diverge:\nreference: %x\nlowered:   %x", i, ctxR, ctxL)
			}
			if err := refsem.DiffHeaps(er.Heap(), el.Heap()); err != nil {
				t.Fatalf("%s: heap images diverge: %v", what, err)
			}
		}
	})
}

// loadVerified loads spec on a Runtime of its own, or returns nil when the
// verifier refuses the program: a Load may fail nowhere else, so every
// program the verifier accepts lowers and links.
func loadVerified(t *testing.T, spec kflex.Spec) *kflex.Extension {
	t.Helper()
	rt := kflex.NewRuntime()
	ext, err := rt.Load(spec)
	if err == nil {
		t.Cleanup(ext.Close)
		return ext
	}
	if _, verr := verifier.Verify(spec.Insns, verifier.Config{
		Mode: verifier.ModeKFlex, Hook: spec.Hook, Kernel: rt.Kernel(),
		HeapSize: spec.HeapSize, ShareHeap: spec.ShareHeap,
	}); verr == nil {
		t.Fatalf("a program the verifier accepts failed to load: %v\nprog:\n%s", err, insn.Disassemble(spec.Insns))
	}
	return nil
}

// clusterSeeds are small verified programs over the bench context
// (key at +8, value at +16) holding each cluster kind of the lowering: a
// load and the branch on it in both compare widths and both operand forms,
// a folded move, base + displacement + index, and the scaled index.
func clusterSeeds() [][]insn.Instruction {
	return [][]insn.Instruction{
		{
			insn.Mov64Imm(insn.R0, 0),
			insn.LoadMem(insn.R2, insn.R1, 8, 8),
			insn.JmpImm(insn.JmpGt, insn.R2, 2, 1),
			insn.Mov64Imm(insn.R0, 1),
			insn.LoadMem(insn.R3, insn.R1, 16, 4),
			insn.Jmp32Reg(insn.JmpSlt, insn.R3, insn.R2, 1),
			insn.Alu64Imm(insn.AluAdd, insn.R0, 2),
			insn.LoadMem(insn.R4, insn.R1, 8, 8),
			insn.Jmp32Imm(insn.JmpNe, insn.R4, 3, 1),
			insn.Alu64Imm(insn.AluAdd, insn.R0, 4),
			insn.Exit(),
		},
		{
			insn.LoadMem(insn.R4, insn.R1, 8, 8),
			insn.Mov64Reg(insn.R0, insn.R4), // scaled index
			insn.Alu64Imm(insn.AluAnd, insn.R0, 15),
			insn.Alu64Imm(insn.AluLsh, insn.R0, 3),
			insn.Mov64Reg(insn.R2, insn.R4), // base + displacement + index
			insn.Alu64Imm(insn.AluAdd, insn.R2, 16),
			insn.Alu64Reg(insn.AluAdd, insn.R2, insn.R0),
			insn.Mov64Reg(insn.R3, insn.R2), // folded moves, 64 and 32 bits
			insn.Alu32Imm(insn.AluXor, insn.R3, -1),
			insn.Mov32Reg(insn.R5, insn.R4),
			insn.Alu32Imm(insn.AluArsh, insn.R5, 1),
			insn.Alu64Reg(insn.AluAdd, insn.R0, insn.R2),
			insn.Alu64Reg(insn.AluXor, insn.R0, insn.R3),
			insn.Alu64Reg(insn.AluAdd, insn.R0, insn.R5),
			insn.Exit(),
		},
	}
}

func ctxBytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestMalformedOpcodeRefusedByBothTiers: a malformed instruction on a branch
// the verifier's walk folds away — here an LD-class opcode that is not LDDW
// — is refused by both layers that read it. The verifier's structural check
// sees every instruction, so Load fails with a *verifier.Error at insn 2,
// and compile.Lower refuses the stream on its own. The program is also a
// committed FuzzLoweredEquivalence seed.
func TestMalformedOpcodeRefusedByBothTiers(t *testing.T) {
	prog := []insn.Instruction{
		insn.Mov64Imm(insn.R0, 0),
		insn.JmpImm(insn.JmpEq, insn.R0, 0, 1),
		{Op: insn.ClassLD | 0x30},
		insn.Exit(),
	}
	_, err := kflex.NewRuntime().Load(kflex.Spec{
		Name: "malformed", Insns: prog, Hook: kflex.HookBench,
		Mode: kflex.ModeKFlex, HeapSize: 1 << 16,
	})
	var verr *verifier.Error
	if !errors.As(err, &verr) || verr.Insn != 2 {
		t.Fatalf("Load err = %v, want a *verifier.Error at insn 2", err)
	}
	if _, err := compile.Lower(&kie.Report{Prog: prog}); err == nil {
		t.Fatal("compile.Lower accepted a malformed LD opcode")
	}
}

// TestTiersAgreeOnLoadForEveryOpcode sweeps all 256 opcode bytes through
// both positions — stepped by the verifier's walk, and hidden from it behind
// a folded branch. Only the verifier may refuse a program: every one it
// accepts must lower and link, and one run of it must match the reference
// semantics. It is the exhaustive form of the fuzz target's first assertion.
func TestTiersAgreeOnLoadForEveryOpcode(t *testing.T) {
	for op := 0; op < 256; op++ {
		ins := insn.Instruction{Op: insn.Opcode(op), Dst: insn.R2, Src: insn.R3, Imm: 16}
		for _, prog := range [][]insn.Instruction{
			{insn.Mov64Imm(insn.R0, 0), insn.Mov64Imm(insn.R2, 0), insn.Mov64Imm(insn.R3, 0), ins, insn.Exit()},
			{insn.Mov64Imm(insn.R0, 0), insn.JmpImm(insn.JmpEq, insn.R0, 0, 1), ins, insn.Exit()},
		} {
			spec := kflex.Spec{
				Name: "sweep", Insns: prog, Hook: kflex.HookBench,
				Mode: kflex.ModeKFlex, HeapSize: 1 << 16,
			}
			el := loadVerified(t, spec)
			if el == nil {
				continue
			}
			_, ref, err := loadRef(t, spec)
			if err != nil {
				t.Fatal(err)
			}
			rr, errR := ref.Run(nil, make([]byte, kflex.HookBench.CtxSize))
			rl, errL := el.Handle(0).Run(nil, make([]byte, kflex.HookBench.CtxSize))
			sameAsRef(t, fmt.Sprintf("opcode %#02x in a %d-instruction program", op, len(prog)), rr, errR, rl, errL)
		}
	}
}
