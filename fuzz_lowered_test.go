package kflex_test

import (
	"bytes"
	"errors"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/ds"
	"kflex/internal/verifier"
)

// FuzzLoweredEquivalence feeds arbitrary byte strings through the decoder
// and, whenever the verifier accepts the program, runs it on both execution
// tiers. The two tiers must accept exactly the same programs and produce
// identical results, context writes, aborts, and (normalized) work
// counters — the fuzzing arm of the differential harness.
//
// Determinism: each tier gets its own Runtime, so the per-kernel helper
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
	// heap base, so the tiers agree only because their heaps, one per
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
		spec.Interpret = true
		ei, errI := kflex.NewRuntime().Load(spec)
		spec.Interpret = false
		el, errL := kflex.NewRuntime().Load(spec)
		if (errI == nil) != (errL == nil) {
			t.Fatalf("tiers disagree on load: interpreter err=%v, lowered err=%v", errI, errL)
		}
		if errI != nil {
			t.Skip() // rejected by the verifier on both tiers alike
		}
		defer ei.Close()
		defer el.Close()
		if err := el.ValidateLowering(); err != nil {
			t.Fatalf("%v\nprog:\n%s", err, insn.Disassemble(prog))
		}

		ctxI := make([]byte, kflex.HookBench.CtxSize)
		ctxL := make([]byte, kflex.HookBench.CtxSize)
		for i := 0; i < 8; i++ {
			copy(ctxI[8:16], ctxBytes(key+uint64(i)))
			copy(ctxI[16:24], ctxBytes(val))
			copy(ctxL, ctxI)
			ri, erri := ei.Handle(0).Run(nil, ctxI)
			rl, errl := el.Handle(0).Run(nil, ctxL)
			if (erri == nil) != (errl == nil) {
				t.Fatalf("run %d: errors diverge: interp %v, lowered %v", i, erri, errl)
			}
			if erri != nil {
				return // both unloaded/erred identically
			}
			ri.Stats.Dispatches, ri.Stats.Fused = 0, 0
			rl.Stats.Dispatches, rl.Stats.Fused = 0, 0
			if ri.Ret != rl.Ret || ri.Cancelled != rl.Cancelled || ri.Stats != rl.Stats {
				t.Fatalf("run %d: results diverge:\ninterp:  %+v\nlowered: %+v\nprog:\n%s",
					i, ri, rl, insn.Disassemble(prog))
			}
			switch {
			case (ri.Abort == nil) != (rl.Abort == nil),
				ri.Abort != nil && (ri.Abort.Kind != rl.Abort.Kind || ri.Abort.PC != rl.Abort.PC):
				t.Fatalf("run %d: aborts diverge: %+v vs %+v\nprog:\n%s",
					i, ri.Abort, rl.Abort, insn.Disassemble(prog))
			}
			if !bytes.Equal(ctxI, ctxL) {
				t.Fatalf("run %d: ctx writes diverge:\ninterp:  %x\nlowered: %x", i, ctxI, ctxL)
			}
		}
	})
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
// — used to load on the interpreter (nothing ever looked at it) and be
// refused by the lowering. The verifier's structural check sees every
// instruction, so both tiers refuse, with the same *verifier.Error. The
// program is also a committed FuzzLoweredEquivalence seed.
func TestMalformedOpcodeRefusedByBothTiers(t *testing.T) {
	prog := []insn.Instruction{
		insn.Mov64Imm(insn.R0, 0),
		insn.JmpImm(insn.JmpEq, insn.R0, 0, 1),
		{Op: insn.ClassLD | 0x30},
		insn.Exit(),
	}
	var errs [2]*verifier.Error
	for i, interpret := range []bool{true, false} {
		_, err := kflex.NewRuntime().Load(kflex.Spec{
			Name: "malformed", Insns: prog, Hook: kflex.HookBench,
			Mode: kflex.ModeKFlex, HeapSize: 1 << 16, Interpret: interpret,
		})
		if !errors.As(err, &errs[i]) {
			t.Fatalf("interpret=%v: Load err = %v, want a *verifier.Error", interpret, err)
		}
	}
	if *errs[0] != *errs[1] || errs[0].Insn != 2 {
		t.Fatalf("tiers refuse differently: interpreter %v, lowered %v; want insn 2 on both", errs[0], errs[1])
	}
}

// TestTiersAgreeOnLoadForEveryOpcode sweeps all 256 opcode bytes through
// both positions — stepped by the verifier's walk, and hidden from it behind
// a folded branch — and requires the tiers to agree on whether the program
// loads. It is the exhaustive form of the fuzz target's first assertion.
func TestTiersAgreeOnLoadForEveryOpcode(t *testing.T) {
	for op := 0; op < 256; op++ {
		ins := insn.Instruction{Op: insn.Opcode(op), Dst: insn.R2, Src: insn.R3, Imm: 16}
		for _, prog := range [][]insn.Instruction{
			{insn.Mov64Imm(insn.R0, 0), insn.Mov64Imm(insn.R2, 0), insn.Mov64Imm(insn.R3, 0), ins, insn.Exit()},
			{insn.Mov64Imm(insn.R0, 0), insn.JmpImm(insn.JmpEq, insn.R0, 0, 1), ins, insn.Exit()},
		} {
			spec := kflex.Spec{
				Name: "sweep", Insns: prog, Hook: kflex.HookBench,
				Mode: kflex.ModeKFlex, HeapSize: 1 << 16, Interpret: true,
			}
			ei, errI := kflex.NewRuntime().Load(spec)
			spec.Interpret = false
			el, errL := kflex.NewRuntime().Load(spec)
			if (errI == nil) != (errL == nil) {
				t.Errorf("opcode %#02x in a %d-instruction program: interpreter err=%v, lowered err=%v",
					op, len(prog), errI, errL)
			}
			for _, ext := range []*kflex.Extension{ei, el} {
				if ext != nil {
					ext.Close()
				}
			}
		}
	}
}
