package offload_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/durable"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// BenchmarkColdLoad times bringing up a supervised deployment on a fresh
// runtime with the default 64 MiB heap over a durable store of keys pairs:
// the full load pipeline, the heap and the first generation's init, which
// populates the heap with every pair. The store is filled off the clock,
// once per size. Close and a collection run between iterations, off the
// clock, so each load starts with its predecessor unreachable.
func BenchmarkColdLoad(b *testing.B) {
	for _, keys := range []int{0, 1024, workload.KeySpace} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			st, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{SyncEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for i := 0; i < keys; i++ {
				st.Set(key(i), val(i))
			}
			cfg := memcached.DefaultConfig(workload.Mix90)
			cfg.Preload, cfg.Durable = false, st
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := offload.NewSupervised(&memcached.Codec, cfg, 1, supervisor.Tuning{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := s.Supervisor().Stats().LastInit.ResyncOps; got != keys {
					b.Fatalf("cold load populated %d of %d keys", got, keys)
				}
				s.Close()
				runtime.GC()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkGetHit times one offloaded GET hit through a Worker of the bare
// deployment, its table preloaded with keys entries and the GET frames
// built beforehand and sent in a seeded random order. The SETs grow the
// table from 1 Ki buckets, so each size runs at load factor ≤ 1: at 256
// keys the nodes stay in cache; at the workload's 64 Ki keys (64 Ki
// buckets) the bucket word and the node miss in cache, so the ratio of the
// two is the memory-bound share of a GET.
func BenchmarkGetHit(b *testing.B) {
	c := &memcached.Codec
	for _, keys := range []int{256, workload.KeySpace} {
		k, err := offload.NewKFlex(c, offload.Config{ValueSize: kvprog.ValueSize}, 1, false)
		if err != nil {
			b.Fatal(err)
		}
		w := k.Worker(0)
		for i := 0; i < keys; i++ {
			if reply, _, err := w.Execute(c.AppendSet(nil, key(i), val(i))); err != nil || string(reply) != c.Stored {
				b.Fatalf("preload SET %d: reply %q err %v", i, reply, err)
			}
		}
		gets := make([][]byte, keys)
		for j, i := range rand.New(rand.NewSource(1)).Perm(keys) {
			gets[j] = c.AppendGet(nil, key(i))
			if reply, _, err := w.Execute(gets[j]); err != nil || !bytes.Equal(reply, c.AppendHit(nil, val(i))) {
				b.Fatalf("GET %d: reply %q err %v", i, reply, err)
			}
		}
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Execute(gets[i%keys]); err != nil {
					b.Fatal(err)
				}
			}
		})
		k.Close()
	}
}
