// Engine micro-benchmarks with no twin elsewhere: raw dispatch throughput
// and the full load pipeline. The paper's tables and figures come from
// cmd/kfbench (model time); wall time on the composed serving path is
// measured by benchmark/ alone.
//
//	go test -run NONE -bench . -benchmem .
package kflex_test

import (
	"testing"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/ds"
)

// BenchmarkVMDispatch measures raw dispatch-loop throughput on a counted
// 1024-iteration arithmetic loop (instructions per second = 3072/op·N).
func BenchmarkVMDispatch(b *testing.B) {
	prog := asm.New().
		MovImm(insn.R1, 1024).
		MovImm(insn.R0, 0).
		Label("loop").
		AddReg(insn.R0, insn.R1).
		I(insn.Alu64Imm(insn.AluSub, insn.R1, 1)).
		JmpImm(insn.JmpNe, insn.R1, 0, "loop").
		Exit().
		MustAssemble()
	ext, err := kflex.NewRuntime().Load(kflex.Spec{
		Name: "dispatch", Insns: prog, Hook: kflex.HookBench, Mode: kflex.ModeEBPF,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	ctx := make([]byte, kflex.HookBench.CtxSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(nil, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierLoad measures the full load pipeline (verify +
// instrument) on the largest extension in the repository, the red-black
// tree.
func BenchmarkVerifierLoad(b *testing.B) {
	prog := ds.Program(ds.KindRBTree)
	for i := 0; i < b.N; i++ {
		ext, err := kflex.NewRuntime().Load(kflex.Spec{
			Name: "rbtree", Insns: prog, Hook: kflex.HookBench,
			Mode: kflex.ModeKFlex, HeapSize: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		ext.Close()
	}
}
