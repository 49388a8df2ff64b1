package netsim_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/ds"
	"kflex/internal/workload"
)

// BenchmarkHandler times the user-space work each handler constant in
// netsim stands for, one sub-benchmark per constant: Codec.Handle over a
// preloaded store for a Zipfian GET or SET (McGetNs, McSetNs, RedisGetNs,
// RedisSetNs), a ZADD's RESP parse and insert under the sorted set's lock
// (ZAddNs), and the co-design collector's scan of a preloaded table, per
// entry (GCEntryNs). Request frames are built before the timer starts, as
// a client builds them.
func BenchmarkHandler(b *testing.B) {
	for _, c := range []*offload.Codec{&memcached.Codec, &redis.Codec} {
		store := offload.NewStore()
		offload.Preload(store, kvprog.ValueSize)
		for _, op := range []struct {
			name string
			mix  workload.Mix
		}{{"get", workload.Mix{GetPct: 100}}, {"set", workload.Mix{GetPct: 0}}} {
			fac := c.NewReqFactory(offload.Config{Mix: op.mix, Seed: 1, ValueSize: kvprog.ValueSize})
			frames := make([][]byte, 4096)
			for i := range frames {
				_, frames[i] = fac.Next()
			}
			b.Run(c.Name+"-"+op.name, func(b *testing.B) {
				var reply []byte
				for i := 0; i < b.N; i++ {
					reply = c.Handle(store, frames[i%len(frames)], reply)
				}
			})
		}
	}

	b.Run("zadd", func(b *testing.B) {
		type zadd struct {
			frame         []byte
			member, score uint64
		}
		// As many requests as Figure 6 runs at full scale, so the sorted set
		// grows to the size the figure sees.
		gen, r := workload.NewGenerator(1, workload.Mix{GetPct: 0}), rand.New(rand.NewSource(2))
		reqs := make([]zadd, 1<<17)
		for i := range reqs {
			z := zadd{member: gen.Next().Key, score: r.Uint64() % (1 << 16)}
			z.frame = redis.EncodeCommand([]byte("ZADD"), []byte("zset"),
				[]byte(strconv.FormatUint(z.score, 10)), workload.FormatKey(z.member, redis.KeySize))
			reqs[i] = z
		}
		var mu sync.Mutex
		zset := ds.NewNativeZSet()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z := reqs[i%len(reqs)]
			if _, err := redis.ParseCommand(z.frame); err != nil {
				b.Fatal(err)
			}
			mu.Lock()
			zset.ZAdd(z.member, z.score)
			mu.Unlock()
		}
	})

	b.Run("gc-scan", func(b *testing.B) {
		cd, err := memcached.NewCoDesign(memcached.DefaultConfig(workload.Mix90), 1)
		if err != nil {
			b.Fatal(err)
		}
		defer cd.Close()
		var entries uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := cd.RunGC()
			if err != nil {
				b.Fatal(err)
			}
			entries += n
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
	})
}
