package verifier_test

import (
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/ds"
	"kflex/internal/kernel"
	"kflex/internal/verifier"
)

// BenchmarkVerify times one whole Verify — one walk, widening from the point
// where it finds an unbounded loop — of the KV program and the three data
// structures of the ds-mix workload, as Runtime.Load configures it.
func BenchmarkVerify(b *testing.B) {
	rt := kflex.NewRuntime()
	memcached.Codec.RegisterHelpers(rt)
	type program struct {
		name string
		prog []insn.Instruction
		hook *kernel.Hook
		heap uint64
	}
	progs := []program{{"kvprog", kvprog.Build(memcached.Codec.Prog), memcached.Codec.Hook, 1 << 26}}
	for _, kind := range []ds.Kind{ds.KindHashMap, ds.KindRBTree, ds.KindSkipList} {
		progs = append(progs, program{string(kind), ds.Program(kind), kflex.HookBench, ds.HeapSize(kind)})
	}
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) {
			cfg := verifier.Config{Mode: verifier.ModeKFlex, Hook: p.hook, Kernel: rt.Kernel(), HeapSize: p.heap}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := verifier.Verify(p.prog, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
