package offload_test

import (
	"bytes"
	"sync"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/workload"
)

// TestTwoCPUsOneTable drives one KV table from two CPUs at once, each
// through its own Worker, on the locked build (NewKFlex with shared set,
// which builds kvprog WithLock): a reader never sees a value torn between
// two writes, and SETs racing through a doubling all land. It pins the
// locked program as the correct one for more than one CPU.
func TestTwoCPUsOneTable(t *testing.T) {
	newTable := func(t *testing.T) (*memcached.KFlexMC, [2]*memcached.Worker) {
		t.Helper()
		cfg := memcached.DefaultConfig(workload.Mix50)
		cfg.Preload = false
		cfg.HeapSize = 1 << 22
		k, err := memcached.NewKFlex(cfg, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(k.Close)
		return k, [2]*memcached.Worker{k.Worker(0), k.Worker(1)}
	}
	set := func(t *testing.T, w *memcached.Worker, k, v []byte) bool {
		reply, _, err := w.Execute(memcached.EncodeSet(k, v))
		if err != nil || string(reply) != "S" {
			t.Errorf("SET %q = (%q, %v)", k, reply, err)
			return false
		}
		return true
	}

	t.Run("set-get", func(t *testing.T) {
		// One CPU overwrites one key with two values in turn while the
		// other reads it: every hit is one of the two.
		const gets = 20000
		_, w := newTable(t)
		k := key(0)
		vals := [2][]byte{val(1), val(2)}
		if !set(t, w[0], k, vals[0]) {
			return
		}
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if !set(t, w[0], k, vals[i%2]) {
					return
				}
			}
		}()
		torn := 0
		for i := 0; i < gets; i++ {
			reply, _, err := w[1].Execute(memcached.EncodeGet(k))
			if err != nil || len(reply) == 0 || reply[0] != 'V' {
				t.Errorf("GET %d = (%q, %v), want a hit", i, reply, err)
				break
			}
			if !bytes.Equal(reply[1:], vals[0]) && !bytes.Equal(reply[1:], vals[1]) {
				torn++
			}
		}
		close(done)
		wg.Wait()
		if torn != 0 {
			t.Errorf("%d of %d GETs returned a value that neither SET wrote", torn, gets)
		}
	})

	t.Run("grow", func(t *testing.T) {
		// Both CPUs insert disjoint new keys, enough that the table
		// doubles from MinBuckets and the doubling finishes under them.
		const perCPU = kvprog.MinBuckets
		k, w := newTable(t)
		var wg sync.WaitGroup
		for cpu := range w {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := cpu; i < 2*perCPU; i += 2 {
					if !set(t, w[cpu], key(i), val(i)) {
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if g := readGeometry(t, k.Ext()); g.mask+1 < 2*kvprog.MinBuckets {
			t.Fatalf("table has %d buckets after %d inserts, want it doubled from %d", g.mask+1, 2*perCPU, kvprog.MinBuckets)
		}
		for i := 0; i < 2*perCPU; i++ {
			reply, _, err := w[i%2].Execute(memcached.EncodeGet(key(i)))
			if err != nil || len(reply) == 0 || reply[0] != 'V' || !bytes.Equal(reply[1:], val(i)) {
				t.Errorf("GET key %d = (%q, %v), want its value", i, reply, err)
			}
		}
	})
}
