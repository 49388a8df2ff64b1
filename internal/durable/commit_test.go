package durable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kflex/internal/faultinject"
)

// tailModel is the tail the ring replaced: append a copy, trim from the
// front past the bound. RecordsSince must be indistinguishable from it.
type tailModel struct {
	recs  [][]byte
	start uint64 // sequence of recs[0]; seq+1 when empty
	seq   uint64
	bound int
	// evicted counts records trimmed: bound of them is one lap of the ring.
	evicted int
}

func (m *tailModel) push(enc []byte) {
	m.seq++
	m.recs = append(m.recs, append([]byte(nil), enc...))
	if over := len(m.recs) - m.bound; over > 0 {
		m.recs = m.recs[over:]
		m.start += uint64(over)
		m.evicted += over
	}
}

func (m *tailModel) reset(seq uint64) {
	m.recs, m.start, m.seq = nil, seq+1, seq
}

func (m *tailModel) since(from uint64) ([][]byte, bool) {
	if from >= m.seq {
		return nil, true
	}
	if len(m.recs) == 0 || from+1 < m.start {
		return nil, false
	}
	return m.recs[from+1-m.start:], true
}

// checkTail compares RecordsSince with the model at every position, and
// checks that what RecordsSince hands out is the caller's to scribble on.
func checkTail(t *testing.T, step int, s *Store, m *tailModel) {
	t.Helper()
	if s.Seq() != m.seq {
		t.Fatalf("step %d: seq %d, model %d", step, s.Seq(), m.seq)
	}
	for from := uint64(0); from <= m.seq+2; from++ {
		want, wantOK := m.since(from)
		for pass := 0; pass < 2; pass++ {
			got, ok := s.RecordsSince(from)
			if ok != wantOK || len(got) != len(want) {
				t.Fatalf("step %d pass %d: RecordsSince(%d) ok=%v n=%d, model ok=%v n=%d",
					step, pass, from, ok, len(got), wantOK, len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("step %d pass %d: RecordsSince(%d)[%d] differs from the model", step, pass, from, i)
				}
				// Scribble: if this aliased a ring slot, pass 1 (and
				// every later step) would read the damage back.
				for j := range got[i] {
					got[i][j] = 0xAA
				}
			}
		}
	}
}

func TestRingTailMatchesModel(t *testing.T) {
	for _, bound := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("TailRecords=%d", bound), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + bound)))
			dir := NewMemDir(nil)
			s, _ := mustOpen(t, dir, Options{TailRecords: bound, SegmentBytes: 2048})
			m := &tailModel{bound: bound, start: 1}
			src := newStore(t)
			for step := 0; step < 40+8*bound; step++ {
				k := key(rng.Intn(12))
				// Values of varying length, so a reused slot both grows
				// and shrinks.
				v := bytes.Repeat([]byte{byte('a' + step%26)}, rng.Intn(90))
				switch op := rng.Intn(20); {
				case op < 10:
					m.push(EncodeRecord(nil, Record{Seq: m.seq + 1, Op: OpSet, Key: k, Value: v}))
					s.Set(k, v)
				case op < 14:
					m.push(EncodeRecord(nil, Record{Seq: m.seq + 1, Op: OpDelete, Key: k}))
					s.Delete(k)
				case op < 19:
					enc := EncodeRecord(nil, Record{Seq: m.seq + 1, Op: OpSet, Key: k, Value: v})
					m.push(enc)
					if err := s.ApplyReplicated(enc); err != nil {
						t.Fatalf("step %d: ApplyReplicated: %v", step, err)
					}
					// The store must have taken its own copy.
					for j := range enc {
						enc[j] = 0x55
					}
				default:
					// A primary is ahead of its follower, never behind.
					for i := 0; src.Seq() < s.Seq()+3; i++ {
						src.Set(key(100+i%5), v)
					}
					if err := s.CopyFrom(src); err != nil {
						t.Fatalf("step %d: CopyFrom: %v", step, err)
					}
					m.reset(src.Seq())
				}
				checkTail(t, step, s, m)
			}
			if m.evicted < 3*bound {
				t.Fatalf("op stream wrapped the ring only %d times", m.evicted/bound)
			}
			// The WAL was appended from the ring slots: what recovery
			// replays must be what the store held.
			want := s.Hash()
			s.Close()
			s2, _ := mustOpen(t, dir, Options{})
			if s2.Hash() != want {
				t.Fatal("recovered store differs: the log did not get the bytes the ring slots held")
			}
		})
	}
}

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

// fullTailStore returns a benchStore whose tail holds TailRecords
// records, the steady state of a long-running server.
func fullTailStore(tb testing.TB, keys [][]byte, val []byte) *Store {
	s := benchStore(tb)
	for i := 0; i < s.opts.TailRecords+len(keys); i++ {
		s.Set(keys[i%len(keys)], val)
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

// TestSetAllocsTailFull is the deterministic guard that per-SET work does
// not scale with TailRecords: with the tail full, an overwrite allocates
// the stored value copy and the map key, nothing for the tail or the log.
func TestSetAllocsTailFull(t *testing.T) {
	keys, val := benchKeys()
	s := fullTailStore(t, keys, val)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		s.Set(keys[i%len(keys)], val)
		i++
	})
	if allocs > 2 {
		t.Fatalf("steady-state Set with a full tail: %.0f allocs, want <= 2", allocs)
	}
}

func BenchmarkStoreSet(b *testing.B) {
	keys, val := benchKeys()
	b.Run("tail=empty", func(b *testing.B) {
		b.ReportAllocs()
		var s *Store
		for i := 0; i < b.N; i++ {
			// A fresh store every half tail, so the tail never fills.
			if i%4096 == 0 {
				b.StopTimer()
				s = benchStore(b)
				b.StartTimer()
			}
			s.Set(keys[i%len(keys)], val)
		}
	})
	b.Run("tail=full", func(b *testing.B) {
		s := fullTailStore(b, keys, val)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Set(keys[i%len(keys)], val)
		}
	})
}
