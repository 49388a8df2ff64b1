package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
)

// TestStoreModel drives a store through a seeded mix of every operation —
// Set (empty values included), Delete, Get, Len, Range, Snapshot, and a
// crash followed by Open — and checks each result against a Go map. The
// key space is small, so overwrites and deletes outrun fresh keys: the
// table must grow its index, rebuild its arena and drop dead entries, and
// the test asserts each happened. Hash must equal a digest of the model,
// and every snapshot file the encoding of the sorted model.
func TestStoreModel(t *testing.T) { eachDevice(t, testStoreModel) }

func testStoreModel(t *testing.T, dir Dir) {
	const ops, keySpace = 100_000, 160
	opts := Options{SyncEvery: 64, SegmentBytes: 4 << 10}
	r := rand.New(rand.NewPCG(35, 1))
	keys := make([][]byte, keySpace)
	keys[0] = []byte{}
	for i := 1; i < keySpace; i++ { // 2 to 10 bytes, each key distinct
		keys[i] = append(key(i)[:r.IntN(9)], byte(i), byte(i>>8))
	}
	model := make(map[string][]byte)
	s, _ := mustOpen(t, dir, opts)
	var grows, rebuilds, dropped uint64
	count := func(s *Store) {
		g, r, d := s.TableCounts()
		grows, rebuilds, dropped = grows+g, rebuilds+r, dropped+d
	}
	for op := 0; op < ops; op++ {
		k := keys[r.IntN(keySpace)]
		switch n := r.IntN(1000); {
		case n < 500:
			v := make([]byte, r.IntN(97)) // 0..96 bytes: empty about 1 in 97
			for i := range v {
				v[i] = byte(r.Uint32())
			}
			s.Set(k, v)
			model[string(k)] = v
		case n < 650:
			s.Delete(k)
			delete(model, string(k))
		case n < 700: // a key never used again: its entry stays dead
			k = binary.LittleEndian.AppendUint64([]byte("gone"), uint64(op))
			s.Set(k, k)
			s.Delete(k)
		case n < 900:
			if got, want := s.Get(k), model[string(k)]; !bytes.Equal(got, want) || (len(want) == 0) != (got == nil) {
				t.Fatalf("op %d: Get(%q) = %q, want %q", op, k, got, want)
			}
		case n < 950:
			if s.Len() != len(model) {
				t.Fatalf("op %d: Len %d, want %d", op, s.Len(), len(model))
			}
		case n < 985:
			checkModel(t, s, model)
		case n < 995:
			if err := s.Snapshot(); err != nil {
				t.Fatalf("op %d: Snapshot: %v", op, err)
			}
			f, err := dir.Open(snapName(s.Seq()))
			if err != nil {
				t.Fatal(err)
			}
			got := readAll(t, f)
			f.Close()
			if got != string(encodeModel(s.Seq(), model)) {
				t.Fatalf("op %d: snapshot at seq %d is not the encoding of the sorted model", op, s.Seq())
			}
		default:
			// Synced first, so the recovered store must equal the model:
			// what a crash loses of an unsynced tail is
			// TestCrashLosesOnlyUnsyncedTail's. An OSDir cannot crash; it
			// is closed and opened again.
			seq := s.Seq()
			count(s)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if m, ok := dir.(*MemDir); ok {
				m.Crash()
			} else {
				s.Close()
			}
			var info RecoveryInfo
			s, info = mustOpen(t, dir, opts)
			if s.Seq() != seq || info.Keys != len(model) || info.TornBytes != 0 {
				t.Fatalf("op %d: recovered seq %d, %+v; want seq %d and %d keys", op, s.Seq(), info, seq, len(model))
			}
			checkModel(t, s, model)
		}
	}
	checkModel(t, s, model)
	count(s)
	s.Close()
	if grows == 0 || rebuilds == 0 || dropped == 0 {
		t.Fatalf("index grows %d, arena rebuilds %d, dead entries dropped %d: want each above 0", grows, rebuilds, dropped)
	}
}

// checkModel compares Len, Range and Hash with the model.
func checkModel(t *testing.T, s *Store, model map[string][]byte) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("Len %d, want %d", s.Len(), len(model))
	}
	var want []string
	for _, k := range sortedKeys(model) {
		if len(model[k]) > 0 { // Range skips an empty value, as Get misses it
			want = append(want, k)
		}
	}
	i := 0
	err := s.Range(func(k, v []byte) error {
		if i >= len(want) || string(k) != want[i] || !bytes.Equal(v, model[want[i]]) {
			t.Fatalf("Range pair %d is %q=%q, want the sorted model's", i, k, v)
		}
		i++
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("Range visited %d of %d pairs (err %v)", i, len(want), err)
	}
	if got, want := s.Hash(), modelHash(model); got != want {
		t.Fatalf("Hash %#x, want the model's %#x", got, want)
	}
}

func sortedKeys(model map[string][]byte) []string {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// modelHash is Hash's digest, FNV-1a over each key then value of the
// sorted model, each followed by 0xff.
func modelHash(model map[string][]byte) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range append(b, 0xff) {
			h = (h ^ uint64(c)) * 1099511628211
		}
	}
	for _, k := range sortedKeys(model) {
		mix([]byte(k))
		mix(slices.Clone(model[k]))
	}
	return h
}

// encodeModel is the snapshot file of the sorted model at seq.
func encodeModel(seq uint64, model map[string][]byte) []byte {
	b := append([]byte(snapMagic), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(b[8:], seq)
	binary.LittleEndian.PutUint64(b[16:], uint64(len(model)))
	for _, k := range sortedKeys(model) {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(k)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(model[k])))
		b = append(append(b, k...), model[k]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestRangeDuringRebuild runs Range while another goroutine overwrites,
// deletes and adds enough keys to rebuild the table: the callback sees
// exactly the pairs the store held when Range began, values handed out
// before the rebuild keep their bytes, and fn calls back into the store.
func TestRangeDuringRebuild(t *testing.T) {
	const keys = 512
	s := newStore(t)
	want := make(map[string][]byte)
	for i := 0; i < keys; i++ {
		s.Set(key(i), value(i))
		want[string(key(i))] = value(i)
	}
	_, rebuilt, _ := s.TableCounts()
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for round := 0; round < 4; round++ {
			for i := 0; i < keys; i++ {
				s.Set(key(i), value(i+round+1))
				if i%3 == 0 {
					s.Delete(key(i))
				}
				s.Set(key(keys+round*keys+i), value(i))
				s.Delete(key(keys + round*keys + i))
			}
		}
	}()
	var first []byte
	seen := 0
	err := s.Range(func(k, v []byte) error {
		if seen == 0 {
			first = v
			close(start)
			wg.Wait()
			if _, r, _ := s.TableCounts(); r == rebuilt {
				t.Fatal("the writer never rebuilt the table")
			}
		}
		if w, ok := want[string(k)]; !ok || !bytes.Equal(v, w) {
			t.Fatalf("Range saw %q=%q, want the state at its start (%q)", k, v, w)
		}
		delete(want, string(k))
		seen++
		s.Get(k) // fn may call back into the store
		return nil
	})
	if err != nil || len(want) != 0 {
		t.Fatalf("Range missed %d pairs (err %v)", len(want), err)
	}
	if !bytes.Equal(first, value(0)) {
		t.Fatalf("a value handed out before the rebuild changed to %q", first)
	}
}

// TestDeadEntriesBounded sets and deletes many short keys next to a few
// large values, so dead entries fill the index long before their bytes are
// half the arena: the index must drop them rather than double, keeping its
// size and the entry count proportional to the live keys.
func TestDeadEntriesBounded(t *testing.T) {
	const live = 64
	s := newStore(t)
	big := bytes.Repeat([]byte{'v'}, 4<<10)
	for i := 0; i < live; i++ {
		s.Set(key(i), big)
	}
	for i := 0; i < 10_000; i++ {
		k := key(live + i)
		s.Set(k, nil)
		s.Delete(k)
	}
	_, rebuilds, dropped := s.TableCounts()
	if n, size := len(s.tab.ents), len(s.tab.index); n > 2*live || size > 4*live || dropped < 10_000-2*live {
		t.Fatalf("%d entries in a %d-slot index after %d rebuilds dropped %d dead: want at most %d entries and %d slots",
			n, size, rebuilds, dropped, 2*live, 4*live)
	}
	for i := 0; i < live; i++ {
		if !bytes.Equal(s.Get(key(i)), big) {
			t.Fatalf("key %d lost its value", i)
		}
	}
}
