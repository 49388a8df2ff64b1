package supervisor_test

import (
	"sync/atomic"
	"testing"

	"kflex"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// BenchmarkSupervisorRun times a healthy Supervisor.Run of a Ret-only
// extension — the supervisor's own share of an invocation plus the VM's
// entry and exit — serially and with one goroutine per cpu, which is where
// a shared lock or a shared cache line on the path shows.
func BenchmarkSupervisorRun(b *testing.B) {
	const cpus = 2
	newSup := func(b *testing.B) *supervisor.Supervisor {
		sup, err := supervisor.New(supervisor.Config{
			Runtime: kflex.NewRuntime(), Spec: trivialSpec(), NumCPUs: cpus,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(sup.Close)
		return sup
	}
	run := func(b *testing.B, sup *supervisor.Supervisor, cpu int, ctx []byte) {
		if res, err := sup.Run(cpu, nil, ctx); err != nil || res.Ret != kernel.XDPPass {
			b.Fatalf("Run = (%v, %v)", res.Ret, err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		sup := newSup(b)
		ctx := make([]byte, kflex.HookXDP.CtxSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, sup, 0, ctx)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		sup := newSup(b)
		var next atomic.Int32
		b.SetParallelism(1) // with -cpu 2: one goroutine per supervisor cpu
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cpu := int(next.Add(1)-1) % cpus
			ctx := make([]byte, kflex.HookXDP.CtxSize)
			for pb.Next() {
				run(b, sup, cpu, ctx)
			}
		})
	})
}
