package netsim_test

import (
	"errors"
	"fmt"
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
// bucket word and per entry (GCWordNs, GCEntryNs). Request frames are built before the timer starts, as
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

	// gc-scan prices the co-design collector: a full scan of the preloaded
	// table's 64 Ki entries in its 64 Ki buckets, and in 16 Ki buckets — the
	// same chains relinked four buckets to one through the user mapping, the
	// geometry of a table that does not grow. The two scans solve for the
	// per-word and per-entry costs (GCWordNs, GCEntryNs), which it logs.
	b.Run("gc-scan", func(b *testing.B) {
		var words, entries, ns [2]float64
		for i, buckets := range []uint64{1 << 14, 1 << 16} {
			b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
				cd, err := memcached.NewCoDesign(memcached.DefaultConfig(workload.Mix90), 1)
				if err != nil {
					b.Fatal(err)
				}
				defer cd.Close()
				if err := foldTable(cd, buckets); err != nil {
					b.Fatal(err)
				}
				var w, n uint64
				b.ResetTimer()
				for range b.N {
					ws, es, err := cd.RunGC()
					if err != nil {
						b.Fatal(err)
					}
					w, n = ws, es
				}
				ns[i] = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				words[i], entries[i] = float64(w), float64(n)
				b.ReportMetric(ns[i]/float64(n), "ns/entry")
			})
		}
		if words[1] > words[0] && entries[0] == entries[1] {
			w := (ns[1] - ns[0]) / (words[1] - words[0])
			b.Logf("GCWordNs = %.1f, GCEntryNs = %.1f", w, (ns[1]-words[1]*w)/entries[1])
		}
	})
}

// foldTable relinks the co-design table's chains into its first buckets
// buckets, through the user mapping: bucket i's chain is prepended to bucket
// i mod buckets, and the mask shrinks to match — the table a store of that
// many buckets would have held, with every key where a lookup finds it.
func foldTable(cd *memcached.CoDesign, buckets uint64) error {
	uv, err := cd.Ext().UserView()
	if err != nil {
		return err
	}
	at := func(off int16) uint64 { return uv.Base() + uint64(off) }
	table, err := uv.Load(at(kvprog.GlobTable), 8)
	if err != nil {
		return err
	}
	mask, err := uv.Load(at(kvprog.GlobMask), 8)
	if err != nil || mask+1 <= buckets {
		return err
	}
	for i := buckets; i <= mask; i++ {
		from, to := uv.Base()+table+8*i, uv.Base()+table+8*(i%buckets)
		head, err := uv.Load(from, 8)
		if err != nil {
			return err
		}
		if head == 0 {
			continue
		}
		tail := head
		for {
			next, err := uv.Load(tail+uint64(kvprog.NodeNext), 8)
			if err != nil {
				return err
			}
			if next == 0 {
				break
			}
			tail = next
		}
		old, err := uv.Load(to, 8)
		if err == nil {
			err = errors.Join(uv.Store(tail+uint64(kvprog.NodeNext), 8, old), uv.Store(to, 8, head), uv.Store(from, 8, 0))
		}
		if err != nil {
			return err
		}
	}
	return uv.Store(at(kvprog.GlobMask), 8, buckets-1)
}
