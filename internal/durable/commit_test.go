package durable

import (
	"bytes"
	"fmt"
	"testing"

	"kflex/internal/faultinject"
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
// keys exist, a Set allocates the stored value copy and the map key,
// nothing for encoding the record or for the log.
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
	if allocs > 2 {
		t.Fatalf("Set on a store that holds its key: %.0f allocs, want <= 2", allocs)
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
