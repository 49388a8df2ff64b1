package durable

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"kflex/internal/faultinject"
	"kflex/internal/workload"
)

// TestRollKeepsSegmentUntilSynced is the regression test for a roll that
// closed a segment whose fsync had failed: the unsynced tail it left
// behind broke the sequence chain at the crash, and recovery then threw
// away the next segment's records although they had been synced.
func TestRollKeepsSegmentUntilSynced(t *testing.T) {
	plan := faultinject.NewPlan(1)
	// Segment 1 is file id 1. Its 4th fsync is record 4's; its 5th is the
	// roll's, when record 5 no longer fits in 400 bytes.
	plan.FailNth(faultinject.StoreSync, 1, 4)
	plan.FailNth(faultinject.StoreSync, 1, 5)
	dir := NewMemDir(plan)
	s, _ := mustOpen(t, dir, Options{SyncEvery: 1, SegmentBytes: 400})
	plan.Enable()
	var o oracle
	for i := 1; i <= 8; i++ {
		v := bytes.Repeat([]byte{byte('0' + i)}, 64)
		s.Set(key(i), v)
		o.set(key(i), v)
	}
	plan.Disarm()
	if m := s.Metrics(); m.Syncs != 8 || m.SyncErrs != 2 {
		t.Errorf("Syncs %d SyncErrs %d, want 8 and 2 (record 4's fsync and the roll's)", m.Syncs, m.SyncErrs)
	}
	if names, _ := dir.List(); len(names) != 2 {
		t.Fatalf("segments %v: the put-off roll was never retried", names)
	}
	dir.Crash()
	s2, info := mustOpen(t, dir, Options{})
	// Every write after record 4 was followed by a successful fsync of
	// its segment, which covers record 4 as well.
	if info.Replayed != 8 || info.DiscardedSegments != 0 || info.TornBytes != 0 {
		t.Fatalf("recovery lost synced acknowledged writes: %+v", info)
	}
	assertMatchesOracle(t, s2, &o)
}

// TestRangeSortedSnapshot pins Range's contract: sorted key order, one
// consistent view, and fn free to call back into the store.
func TestRangeSortedSnapshot(t *testing.T) {
	s := newStore(t)
	for _, i := range []int{5, 1, 4, 2, 3} {
		s.Set(key(i), value(i))
	}
	s.Set(key(6), nil) // reads as a miss; Range skips it as Get would
	var seen []string
	err := s.Range(func(k, v []byte) error {
		seen = append(seen, string(k))
		if want := value(len(seen)); !bytes.Equal(v, want) {
			t.Fatalf("Range value for %q is %q, want %q", k, v, want)
		}
		s.Set(key(9), value(9)) // must not deadlock, must not be visited
		s.Delete(key(5))        // already in the view
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "[key-0001 key-0002 key-0003 key-0004 key-0005]"; fmt.Sprint(seen) != want {
		t.Fatalf("visited %v, want %s", seen, want)
	}
	stop := fmt.Errorf("stop")
	n := 0
	if err := s.Range(func(k, v []byte) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("Range did not stop at fn's error: err=%v after %d calls", err, n)
	}
}

// benchStore opens the store the performance gate's mc-* workloads
// write through to: a fault-free MemDir flushed on every append.
func benchStore(tb testing.TB) *Store {
	s, _, err := Open(NewMemDir(nil), Options{SyncEvery: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func benchKeys() ([][]byte, []byte) {
	keys := make([][]byte, 1024)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys, bytes.Repeat([]byte{'v'}, 64)
}

// TestSetAllocs is the deterministic guard on per-SET work: once the
// keys exist, a Set allocates nothing — not for the stored value (the
// table appends it to its arena), the record's encoding or the log —
// beyond amortized growth and arena rebuilds.
func TestSetAllocs(t *testing.T) {
	keys, val := benchKeys()
	s := benchStore(t)
	for _, k := range keys {
		s.Set(k, val)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Set(keys[i%len(keys)], val)
		i++
	})
	if allocs > 0 {
		t.Fatalf("Set on a store that holds its key: %.0f allocs, want 0", allocs)
	}
}

// fillWorkload sets a pair of the workload's shapes (a 32-byte key, a
// 64-byte value) for each key number in order, in that order.
func fillWorkload(s *Store, order []int) {
	for _, i := range order {
		s.Set(workload.FormatKey(uint64(i+1), 32), workload.FormatValue(uint64(i), 64))
	}
}

// TestOpenReplayAllocs: recovery applies a replayed record to the table
// without an allocation of its own, so what Open allocates grows with the
// segments it reads (and the table's doublings), not with the records.
func TestOpenReplayAllocs(t *testing.T) {
	const records = 4096
	dir := NewMemDir(nil)
	s, _ := mustOpen(t, dir, Options{})
	fillWorkload(s, rand.New(rand.NewPCG(1, 1)).Perm(records))
	s.Close()
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		s, info, err := Open(dir, Options{})
		if err != nil || info.Replayed != records {
			t.Fatalf("Open replayed %d of %d records: %v", info.Replayed, records, err)
		}
		s.Close()
	})
	// Per segment: its handle and its read buffer; beyond that, the
	// table's and the directory listings' doublings.
	if max := 16*len(segs) + 64; allocs > float64(max) {
		t.Fatalf("Open replaying %d records from %d segments: %.0f allocs, want at most %d", records, len(segs), allocs, max)
	}
}

// TestMemDirAppendAllocs: a MemDir file grows geometrically, so appending
// a 256 KiB segment in 117-byte records (a 32-byte key and a 64-byte
// value) allocates O(log size) times: doubling, not growing by a quarter.
func TestMemDirAppendAllocs(t *testing.T) {
	const size, rec = 256 << 10, 117
	d := NewMemDir(nil)
	p := make([]byte, rec)
	allocs := testing.AllocsPerRun(5, func() {
		f, _ := d.Create("f")
		for n := 0; n < size; n += rec {
			f.Append(p)
		}
	})
	if max := bits.Len(size); allocs > float64(max) {
		t.Fatalf("appending %d bytes in %d-byte records: %.0f allocs, want at most %d", size, rec, allocs, max)
	}
}

func BenchmarkStoreSet(b *testing.B) {
	keys, val := benchKeys()
	b.ReportAllocs()
	var s *Store
	for i := 0; i < b.N; i++ {
		// A fresh store every 4096 SETs bounds the in-memory device.
		if i%4096 == 0 {
			b.StopTimer()
			s = benchStore(b)
			b.StartTimer()
		}
		s.Set(keys[i%len(keys)], val)
	}
}

// BenchmarkStoreRange is one Range over the 64 Ki pairs of a cold load,
// filled in key-number order (as Preload fills a deployment's store) and
// in a shuffled order. sort=library orders the same log-ordered view with
// slices.SortFunc instead of the view's merge sort: the reference the
// merge sort has to beat to be worth its code.
func BenchmarkStoreRange(b *testing.B) {
	const keys = 1 << 16
	sequential := make([]int, keys)
	for i := range sequential {
		sequential[i] = i
	}
	for _, fill := range []struct {
		name  string
		order []int
	}{
		{"sequential", sequential},
		{"shuffled", rand.New(rand.NewPCG(1, 1)).Perm(keys)},
	} {
		b.Run("fill="+fill.name, func(b *testing.B) {
			s := benchStore(b)
			fillWorkload(s, fill.order)
			b.Run("sort=merge", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					n := 0
					s.Range(func(k, v []byte) error { n++; return nil })
					if n != keys {
						b.Fatalf("Range visited %d of %d pairs", n, keys)
					}
				}
			})
			b.Run("sort=library", func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					s.mu.Lock()
					v := s.tab.snapshot()
					s.mu.Unlock()
					slices.SortFunc(v.ents, func(x, y viewEntry) int {
						return bytes.Compare(x.key(v.arena), y.key(v.arena))
					})
					n := 0
					for i := range v.ents {
						if v.ents[i].value(v.arena) != nil {
							n++
						}
					}
					if n != keys {
						b.Fatalf("the view holds %d of %d pairs", n, keys)
					}
				}
			})
		})
	}
}

// BenchmarkStoreSnapshot is one Snapshot of the mc-* workloads' store image:
// 64 Ki workload pairs, preloaded and then each overwritten once. It is the
// stall the SET that crosses the compaction threshold pays under Store.mu.
func BenchmarkStoreSnapshot(b *testing.B) {
	const keys = 1 << 16
	b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
		order := make([]int, keys)
		for i := range order {
			order[i] = i
		}
		s := benchStore(b)
		fillWorkload(s, order)
		fillWorkload(s, order)
		b.ReportAllocs()
		for b.Loop() {
			if err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreRecover is one Open that replays a log of 1 Ki or 64 Ki
// SETs of the workload's shapes, as a crashed deployment's recovery does.
func BenchmarkStoreRecover(b *testing.B) {
	for _, records := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := NewMemDir(nil)
			s, _, err := Open(dir, Options{SyncEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			fillWorkload(s, rand.New(rand.NewPCG(1, 1)).Perm(records))
			s.Close()
			b.ReportAllocs()
			for b.Loop() {
				s, info, err := Open(dir, Options{SyncEvery: 1})
				if err != nil || info.Replayed != uint64(records) {
					b.Fatalf("Open replayed %d of %d records: %v", info.Replayed, records, err)
				}
				s.Close()
			}
		})
	}
}
