package offload_test

import (
	"runtime"
	"testing"

	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// BenchmarkColdLoad times bringing up an empty supervised deployment on a
// fresh runtime with the default 64 MiB heap: the full load pipeline, the
// heap and the first generation's init. Close and a collection run between
// iterations, off the clock, so each load starts with its predecessor
// unreachable.
func BenchmarkColdLoad(b *testing.B) {
	cfg := memcached.DefaultConfig(workload.Mix90)
	cfg.Preload = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := offload.NewSupervised(&memcached.Codec, cfg, 1, supervisor.Tuning{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		runtime.GC()
		b.StartTimer()
	}
}
