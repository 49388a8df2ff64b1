package durable

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
)

// table is a Store's in-memory state, with no pointer per key:
//
//   - arena holds key and value bytes, append-only;
//   - ents holds one entry per key in first-insertion order (log order);
//   - index is open-addressed and linear-probed, each slot an entry
//     number plus one (0 is empty) tagged in its high half with the high
//     half of the key's hash.
//
// An overwritten value and a deleted key's bytes become garbage. A deleted
// key keeps its entry, marked dead, and revives in place if set again.
// When an append does not fit the arena and garbage is more than half of
// it, the append rebuilds into a fresh arena instead of growing: live bytes
// are copied in entry order and dead entries dropped. The index likewise
// drops dead entries instead of doubling when they are half the entries.
//
// Arena bytes are never written twice: a table only appends past len and
// a rebuild moves to a new arena. A value handed out (Get, a view) thus
// stays valid and unchanged after the lock is released.
type table struct {
	arena []byte
	ents  []entry
	index []uint64
	seed  maphash.Seed

	live      int // entries not dead
	liveBytes int // key and value bytes of the live entries

	// grows, rebuilds and dropped count index doublings, arena rebuilds
	// and dead entries removed; the model test asserts each happened.
	grows, rebuilds, dropped uint64
}

// entry locates one key and its current value in the arena.
type entry struct {
	koff, voff int
	klen, vlen uint32
}

// dead is the vlen of a deleted key's entry.
const dead = ^uint32(0)

const minIndex = 8

func newTable() *table {
	return &table{index: make([]uint64, minIndex), seed: maphash.MakeSeed()}
}

func (e *entry) key(arena []byte) []byte {
	end := e.koff + int(e.klen)
	return arena[e.koff:end:end]
}

// value is nil for an empty value, which reads as a miss.
func (e *entry) value(arena []byte) []byte {
	if e.vlen == 0 || e.vlen == dead {
		return nil
	}
	end := e.voff + int(e.vlen)
	return arena[e.voff:end:end]
}

// find returns the index slot holding key, or the empty slot that ends its
// probe sequence, and the key's entry number (-1 when absent).
func (t *table) find(key []byte, h uint64) (slot, e int) {
	mask := len(t.index) - 1
	tag := h &^ 0xffffffff
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return i, -1
		}
		if s&^0xffffffff == tag {
			if e := int(uint32(s)) - 1; bytes.Equal(t.ents[e].key(t.arena), key) {
				return i, e
			}
		}
	}
}

func (t *table) get(key []byte) []byte {
	_, e := t.find(key, maphash.Bytes(t.seed, key))
	if e < 0 {
		return nil
	}
	return t.ents[e].value(t.arena)
}

func (t *table) set(key, value []byte) {
	t.reserve(len(key) + len(value))
	h := maphash.Bytes(t.seed, key)
	slot, e := t.find(key, h)
	if e < 0 {
		if 2*(len(t.ents)+1) > len(t.index) {
			t.makeRoom()
			slot, _ = t.find(key, h)
		}
		e = len(t.ents)
		t.ents = append(t.ents, entry{koff: len(t.arena), klen: uint32(len(key)), vlen: dead})
		t.arena = append(t.arena, key...)
		t.index[slot] = h&^0xffffffff | uint64(e+1)
	}
	ent := &t.ents[e]
	if ent.vlen == dead {
		t.live++
		t.liveBytes += int(ent.klen)
	} else {
		t.liveBytes -= int(ent.vlen)
	}
	ent.voff, ent.vlen = len(t.arena), uint32(len(value))
	t.arena = append(t.arena, value...)
	t.liveBytes += len(value)
}

func (t *table) del(key []byte) {
	_, e := t.find(key, maphash.Bytes(t.seed, key))
	if e < 0 || t.ents[e].vlen == dead {
		return
	}
	ent := &t.ents[e]
	t.live--
	t.liveBytes -= int(ent.klen) + int(ent.vlen)
	ent.vlen = dead
}

// reserve makes room for n more arena bytes. When they do not fit, the
// arena is rebuilt if more than half of it is garbage and doubled
// otherwise, so an overwrite allocates nothing but amortized growth.
func (t *table) reserve(n int) {
	if n <= cap(t.arena)-len(t.arena) {
		return
	}
	if 2*t.liveBytes < len(t.arena) {
		t.rebuild(n)
	} else {
		t.arena = grow(t.arena, n)
	}
}

// makeRoom is called when the index is half full: it drops the dead
// entries if they are half of all entries, and doubles the index
// otherwise. Either costs O(entries), and leaves the arena alone.
func (t *table) makeRoom() {
	if 2*t.live <= len(t.ents) {
		t.dropDead()
		return
	}
	t.grows++
	t.reindex(2 * len(t.index))
}

// rebuild copies the live entries' bytes, in entry order, into a fresh
// arena with room for n more bytes past twice the live size, then drops
// the dead entries.
func (t *table) rebuild(n int) {
	t.rebuilds++
	arena := make([]byte, 0, 2*t.liveBytes+n)
	for i := range t.ents {
		e := &t.ents[i]
		if e.vlen == dead {
			continue
		}
		k := len(arena)
		arena = append(arena, e.key(t.arena)...)
		v := len(arena)
		arena = append(arena, e.value(t.arena)...)
		e.koff, e.voff = k, v
	}
	t.arena = arena
	t.dropDead()
}

// dropDead removes the dead entries, keeping the others' order, and
// reindexes what is left.
func (t *table) dropDead() {
	live := 0
	for _, e := range t.ents {
		if e.vlen != dead {
			t.ents[live] = e
			live++
		}
	}
	t.dropped += uint64(len(t.ents) - live)
	t.ents = t.ents[:live]
	size := minIndex
	for 2*(live+1) > size {
		size *= 2
	}
	t.reindex(size)
}

// reindex rebuilds the index at size slots, a power of two.
func (t *table) reindex(size int) {
	if size == len(t.index) {
		clear(t.index)
	} else {
		t.index = make([]uint64, size)
	}
	mask := size - 1
	for e := range t.ents {
		h := maphash.Bytes(t.seed, t.ents[e].key(t.arena))
		i := int(h) & mask
		for t.index[i] != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = h&^0xffffffff | uint64(e+1)
	}
}

// view is a point-in-time copy of a table's live entries, with the arena
// they point into. It stays valid without the lock, for the arena bytes it
// points at are never written again.
type view struct {
	arena []byte
	ents  []viewEntry
}

// viewEntry is an entry and its abbreviated key (see sort).
type viewEntry struct {
	entry
	abbr uint64
}

// snapshot copies the live entries; call it under the store's lock.
func (t *table) snapshot() view {
	ents := make([]viewEntry, 0, t.live)
	for _, e := range t.ents {
		if e.vlen != dead {
			ents = append(ents, viewEntry{entry: e})
		}
	}
	return view{arena: t.arena, ents: ents}
}

// minRun is the shortest run sort merges: shorter ascending runs are
// extended to it by insertion sort, so random input does not start from
// runs of two.
const minRun = 32

// sort orders the view by key with a natural merge sort. It splits the
// entries into the ascending runs already there — entries are in log
// order, and a sequential fill leaves a few — then merges neighbouring
// runs pairwise until one is left: linear time on a few runs, O(n log n)
// on any input.
func (v *view) sort() {
	ents, arena := v.ents, v.arena
	n := len(ents)
	if n < 2 {
		return
	}
	v.abbreviate()
	less := func(a, b *viewEntry) bool {
		if a.abbr != b.abbr {
			return a.abbr < b.abbr
		}
		return bytes.Compare(a.key(arena), b.key(arena)) < 0
	}
	bounds := []int{0} // run i is ents[bounds[i]:bounds[i+1]]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && less(&ents[hi-1], &ents[hi]) {
			hi++
		}
		if hi-lo < minRun && hi < n {
			hi = min(lo+minRun, n)
			for i := lo + 1; i < hi; i++ { // insertion sort
				for j := i; j > lo && less(&ents[j], &ents[j-1]); j-- {
					ents[j], ents[j-1] = ents[j-1], ents[j]
				}
			}
		}
		bounds = append(bounds, hi)
		lo = hi
	}
	if len(bounds) == 2 {
		return
	}
	src, dst := ents, make([]viewEntry, n)
	for len(bounds) > 2 {
		runs := 0
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[i+1]
			if i+2 < len(bounds) {
				hi = bounds[i+2]
			}
			merge(dst[lo:hi], src[lo:mid], src[mid:hi], less)
			bounds[runs] = lo
			runs++
		}
		bounds[runs] = n
		bounds = bounds[:runs+1]
		src, dst = dst, src
	}
	v.ents = src
}

// abbreviate sets each entry's abbreviated key: the 8 bytes that follow the
// prefix every key shares, big-endian and zero-padded. Abbreviations never
// order two keys the wrong way round, so sort reads key bytes only to break
// a tie.
func (v *view) abbreviate() {
	shared := v.ents[0].key(v.arena)
	for i := 1; i < len(v.ents) && len(shared) > 0; i++ {
		k := v.ents[i].key(v.arena)
		if len(k) < len(shared) || !bytes.Equal(k[:len(shared)], shared) {
			p := 0
			for p < min(len(k), len(shared)) && k[p] == shared[p] {
				p++
			}
			shared = shared[:p]
		}
	}
	for i := range v.ents {
		var abbr [8]byte
		copy(abbr[:], v.ents[i].key(v.arena)[len(shared):])
		v.ents[i].abbr = binary.BigEndian.Uint64(abbr[:])
	}
}

// merge merges the sorted runs a and b into out, copying them whole when
// one ends below the other's start.
func merge(out, a, b []viewEntry, less func(a, b *viewEntry) bool) {
	switch {
	case len(b) == 0 || less(&a[len(a)-1], &b[0]):
		copy(out[copy(out, a):], b)
	case less(&b[len(b)-1], &a[0]):
		copy(out[copy(out, b):], a)
	default:
		i, j, k := 0, 0, 0
		for ; i < len(a) && j < len(b); k++ {
			if less(&b[j], &a[i]) {
				out[k] = b[j]
				j++
			} else {
				out[k] = a[i]
				i++
			}
		}
		copy(out[k+copy(out[k:], a[i:]):], b[j:])
	}
}

// grow returns b with room for n more bytes, at least doubling its
// capacity when it has to grow: append grows a large slice by about a
// quarter, which would copy a buffer built by small appends several times
// over.
func grow(b []byte, n int) []byte {
	if n <= cap(b)-len(b) {
		return b
	}
	nb := make([]byte, len(b), max(2*cap(b), len(b)+n))
	copy(nb, b)
	return nb
}
