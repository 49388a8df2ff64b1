package kflex_test

import (
	"bytes"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/ds"
)

// FuzzLoweredEquivalence feeds arbitrary byte strings through the decoder
// and, whenever the verifier accepts the program, runs it on both execution
// tiers. The two tiers must accept exactly the same programs and produce
// identical results, context writes, aborts, and (normalized) work
// counters — the fuzzing arm of the differential harness.
//
// Determinism: each tier gets its own Runtime, so the per-kernel helper
// state (prandom stream, ktime tick counter) replays identically; the
// instruction quantum bounds unbounded loops the verifier admitted.
func FuzzLoweredEquivalence(f *testing.F) {
	for _, kind := range ds.Kinds {
		if raw, err := insn.Encode(ds.Program(kind)); err == nil {
			f.Add(raw, uint64(1), uint64(2))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, key, val uint64) {
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

func ctxBytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
