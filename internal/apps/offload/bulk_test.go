package offload_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/kie"
)

// storePairs returns a store's pairs in Range order, copied out of the
// buffer Range reuses.
func storePairs(t *testing.T, kv offload.KV) (keys, values [][]byte) {
	t.Helper()
	err := kv.Range(func(k, v []byte) error {
		keys, values = append(keys, bytes.Clone(k)), append(values, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, values
}

// carved reads the words of the heap from its base to the allocator's bump
// offset — every word the extension's allocations and globals can have
// reached. Heaps of one size share their base, so two holding the same
// structure compare equal word for word, pointers included.
func carved(t *testing.T, ext *kflex.Extension) []uint64 {
	t.Helper()
	h := ext.Heap()
	raw := make([]byte, ext.Alloc().BumpOff())
	if err := h.ExtView().ReadInto(h.ExtBase(), raw); err != nil {
		t.Fatal(err)
	}
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return words
}

// bulkEqualsPush: a cold populate from a store leaves the heap the per-key
// path leaves when the same pairs arrive as client SET frames after the
// init event — the same words over the carved range, the same allocator
// counts (one node per key, after the bucket array) and the same reply to
// every GET. Batch edges included.
func bulkEqualsPush(t *testing.T, c *offload.Codec) {
	const batch = offload.BulkBatch
	for _, keys := range []int{0, 1, batch - 1, batch, batch + 1, 1000} {
		t.Run(fmt.Sprintf("keys=%d", keys), func(t *testing.T) {
			cfg := testConfig()
			d := deploy(t, c, nil, cfg, func(st *durable.Store) {
				for i := 0; i < keys; i++ {
					st.Set(key(i), val(i))
				}
			})
			if init := d.Supervisor().Stats().LastInit; !init.FullResync || init.ResyncOps != keys {
				t.Fatalf("cold init = %+v, want a full resync of %d keys", init, keys)
			}
			k, err := offload.NewKFlex(c, cfg, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			defer k.Close()
			ks, vs := storePairs(t, d.Store())
			for i := range ks {
				if reply, _, err := k.Execute(0, c.AppendSet(nil, ks[i], vs[i])); err != nil || string(reply) != c.Stored {
					t.Fatalf("SET %q: reply %q err %v", ks[i], reply, err)
				}
			}
			bulk, push := d.Supervisor().Extension(), k.Ext()
			if b, p := bulk.Alloc().Stats(), push.Alloc().Stats(); b != p || b.Allocs != uint64(keys)+1 {
				t.Fatalf("allocator stats: bulk %+v, per-key %+v, want equal with %d allocations", b, p, keys+1)
			}
			if b, p := carved(t, bulk), carved(t, push); !slices.Equal(b, p) {
				i := 0
				for i < len(b) && i < len(p) && b[i] == p[i] {
					i++
				}
				t.Fatalf("heaps differ: %d and %d carved words, first difference at offset %#x", len(b), len(p), 8*i)
			}
			for i := 0; i <= keys; i++ {
				get := c.AppendGet(nil, key(i))
				want := []byte(c.Miss)
				if i < keys {
					want = c.AppendHit(nil, val(i))
				}
				pushed, _, err := k.Execute(0, get)
				if err != nil || !bytes.Equal(pushed, want) {
					t.Fatalf("GET %d per-key: reply %q err %v, want %q", i, pushed, err, want)
				}
				if reply, _, off := d.Execute(0, get); !bytes.Equal(reply, want) || !off {
					t.Fatalf("GET %d bulk: reply %q offloaded=%v, want %q offloaded", i, reply, off, want)
				}
			}
		})
	}
}

// Bound on one bulk invocation: its fixed part (prologue, dispatch, exit)
// and what each pair adds (malloc, fill, hash, link, the loop test and its
// probe), guards and probes counted.
const bulkFixedInsns, bulkPairInsns = 24, 45

// bulkInsnBound: a full batch runs in one invocation of at most
// bulkFixedInsns + bulkPairInsns per pair, with two helper calls per pair
// and a probe on every back edge (the last pair leaves through the loop
// test), and inserts every pair.
func bulkInsnBound(t *testing.T, c *offload.Codec) {
	rt := kflex.NewRuntime()
	c.RegisterHelpers(rt)
	ext, err := rt.Load(kflex.Spec{
		Name: "bulk", Insns: kvprog.Build(c.Prog), Hook: c.Hook,
		Mode: kflex.ModeKFlex, HeapSize: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	h := ext.Handle(0)
	if _, err := c.RunInit(h, offload.BulkBatch); err != nil {
		t.Fatal(err)
	}
	keys, values := make([][]byte, offload.BulkBatch), make([][]byte, offload.BulkBatch)
	for i := range keys {
		keys[i], values[i] = key(i), val(i)
	}
	res, err := c.RunBulk(h, keys, values)
	if err != nil {
		t.Fatal(err)
	}
	st, n := res.Stats, uint64(offload.BulkBatch)
	if st.Insns > bulkFixedInsns+bulkPairInsns*n || st.Probes != n-1 || st.HelperCalls != 2*n+2 {
		t.Fatalf("a %d-pair batch ran %d insns (bound %d), %d probes, %d helper calls, want %d and %d",
			n, st.Insns, bulkFixedInsns+bulkPairInsns*n, st.Probes, st.HelperCalls, n-1, 2*n+2)
	}
	if got := ext.Alloc().Stats().Allocs; got != n+1 {
		t.Fatalf("%d allocations, want the bucket array and %d nodes", got, n)
	}
}

// clientFrameCannotBulk: a client's bytes never reach the bulk loop. Every
// one-byte frame, and every first byte followed by 7 or 114 bytes of seeded
// garbage (too short for any request, or too long for a Memcached SET the
// heap accepts, and never RESP), leaves the heap's pages and the allocator
// as they were, and every key still hits at the hook.
func clientFrameCannotBulk(t *testing.T, c *offload.Codec) {
	const keys = 64
	rng := rand.New(rand.NewSource(1))
	var frames [][]byte
	for b := 0; b < 256; b++ {
		frames = append(frames, []byte{byte(b)})
		for _, n := range []int{7, 2 + kvprog.KeySize + kvprog.ValueSize + 16} {
			garbage := make([]byte, n)
			rng.Read(garbage)
			frames = append(frames, append([]byte{byte(b)}, garbage...))
		}
	}
	d := deploy(t, c, nil, testConfig(), func(st *durable.Store) {
		for i := 0; i < keys; i++ {
			st.Set(key(i), val(i))
		}
	})
	ext := d.Supervisor().Extension()
	pages, stats := ext.Heap().PopulatedPages(), ext.Alloc().Stats()
	for _, frame := range frames {
		d.Execute(0, frame)
	}
	if got := ext.Heap().PopulatedPages(); got != pages || ext.Alloc().Stats() != stats {
		t.Fatalf("%d client frames moved the heap: pages %d -> %d, allocator %+v -> %+v",
			len(frames), pages, got, stats, ext.Alloc().Stats())
	}
	if d.Supervisor().Extension() != ext {
		t.Fatal("the client frames replaced the generation")
	}
	for i := 0; i < keys; i++ {
		d.get(t, i, val(i), true)
	}
}

// bulkCancel (ROADMAP 1(d), for the bulk loop): a cancellation forced
// through the deployment's fault plan at any cancellation point the loop
// executes — its back-edge probe and each heap access — on the first, a
// middle or the last pair of a batch fails the cold init. The supervisor
// discards the half-filled heap, and the next reload brings up a fresh one
// that serves every key.
func bulkCancel(t *testing.T, c *offload.Codec) {
	const keys = offload.BulkBatch
	fill := func(st *durable.Store) {
		for i := 0; i < keys; i++ {
			st.Set(key(i), val(i))
		}
	}
	cfg := testConfig()
	cfg.ColdReload = true // every reload populates a fresh heap
	cfg.CancelThreshold = kflex.CancelNever

	// A clean deployment shows where each pair's node and bucket are: a
	// cold reload replays its allocations exactly.
	ref := deploy(t, c, nil, cfg, fill)
	ext := ref.Supervisor().Extension()
	view := ext.Heap().ExtView()
	word := func(off uint64) uint64 {
		w, err := view.Load(view.Base()+off, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	table, mask := word(uint64(kvprog.GlobTable)), word(uint64(kvprog.GlobMask))
	ks, _ := storePairs(t, ref.Store())
	nodes, slots, prior := make([]uint64, keys), make([]uint64, keys), make([]int, keys)
	seen := make(map[uint64]int)
	for p, k := range ks {
		slots[p] = table + (kvHash(k)&mask)*8
		prior[p] = seen[slots[p]]
		seen[slots[p]]++
		for n := word(slots[p]); ; n = word(n - view.Base() + uint64(kvprog.NodeNext)) {
			if n == 0 {
				t.Fatalf("key %q is not in the reference heap", k)
			}
			got := make([]byte, kvprog.KeySize)
			if err := view.ReadInto(n+uint64(kvprog.NodeKey), got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got, k) {
				nodes[p] = n - view.Base()
				break
			}
		}
	}

	// The loop: from the back edge's target to its probe.
	rep := ext.Report()
	fillAt := -1
	for i, ins := range rep.Prog {
		if ins == insn.Call(c.Prog.FillHelper) {
			fillAt = i
		}
	}
	var probe kie.CP // the first probe after the fill call: the loop's back edge
	for _, cp := range rep.CPs {
		if cp.Kind == kie.CPLoop && cp.Insn > fillAt {
			probe = cp
			break
		}
	}
	head := probe.Insn + 2 + int(rep.Prog[probe.Insn+1].Off)
	if fillAt < 0 || probe.Insn == 0 || head > fillAt {
		t.Fatalf("no bulk loop found: fill call at %d, probe at %d, head %d", fillAt, probe.Insn, head)
	}
	filled := func(off int16) bool { // bytes the fill helper wrote before the program reads them
		return off >= kvprog.NodeKey && off < kvprog.NodeNext || off >= kvprog.NodeVal
	}
	// fault names the plan trigger that cancels the run at cp on pair p: the
	// probe's terminate check by CP id, or a heap access by the offset it
	// touches (R6 the node, R5 its bucket, R8 the heap base, as kvprog.Build
	// assigns them) and how many accesses there came before it.
	fault := func(cp kie.CP, p int) (faultinject.Kind, uint64, uint64) {
		if cp.Kind == kie.CPLoop {
			return faultinject.Terminate, uint64(cp.ID), uint64(p + 1)
		}
		ins := rep.Prog[cp.Insn]
		base, load := ins.Dst, ins.Op.Class() == insn.ClassLDX
		if load {
			base = ins.Src
		}
		switch base {
		case insn.R6:
			nth := uint64(1)
			if filled(ins.Off) {
				nth = 2
			}
			return faultinject.HeapGuard, nodes[p] + uint64(ins.Off), nth
		case insn.R5:
			nth := uint64(2*prior[p] + 2)
			if load {
				nth--
			}
			return faultinject.HeapGuard, slots[p] + uint64(ins.Off), nth
		case insn.R8: // the table offset: stored by the init event, loaded once per pair
			return faultinject.HeapGuard, uint64(ins.Off), uint64(p + 2)
		}
		t.Fatalf("bulk loop CP %d: access through %v", cp.ID, base)
		return 0, 0, 0
	}

	cps := 0
	for _, cp := range rep.CPs {
		if cp.Insn < head || cp.Insn > probe.Insn {
			continue
		}
		cps++
		for _, p := range []int{0, keys / 2, keys - 1} {
			if cp.Kind == kie.CPLoop && p == keys-1 {
				continue // the last pair leaves through the loop test: no probe
			}
			kind, at, nth := fault(cp, p)
			t.Run(fmt.Sprintf("cp=%d/pair=%d", cp.ID, p), func(t *testing.T) {
				plan := faultinject.NewPlan(1).FailNth(kind, at, nth)
				cfg := cfg
				cfg.FaultPlan = plan
				d := deploy(t, c, nil, cfg, fill)
				d.quarantine(t)
				plan.Enable()
				d.reload()
				d.get(t, 0, val(0), false) // the reload fails; the store answers
				plan.Disarm()
				want := []faultinject.Event{{Kind: kind, Key: at}}
				if ev := plan.Events(); len(ev) != 1 || ev[0].Kind != kind || ev[0].Key != at {
					t.Fatalf("injected %v, want %v", ev, want)
				}
				sup := d.Supervisor()
				if st := sup.Stats(); st.ReloadFailures != 1 || st.Reloads != 0 {
					t.Fatalf("stats = %+v, want one failed reload", st)
				}
				d.reload()
				for i := 0; i < keys; i++ {
					d.get(t, i, val(i), true)
				}
				st := sup.Stats()
				if st.Reloads != 1 || !st.LastInit.FullResync || st.LastInit.ResyncOps != keys {
					t.Fatalf("stats = %+v, want one cold reload of %d keys", st, keys)
				}
				// One populate on a fresh heap, not a second on the half-filled one.
				live := sup.Extension().Alloc().Stats()
				if clean := ext.Alloc().Stats(); live != clean || live.Allocs != keys+1 {
					t.Fatalf("the reloaded heap's allocator %+v, a clean cold load's %+v", live, clean)
				}
			})
		}
	}
	if cps < 2 {
		t.Fatalf("the bulk loop has %d cancellation points", cps)
	}
}

// TestRangeAllocs: both stores hand Range's callback every pair without an
// allocation per key — the key in one reused buffer, the value shared — so
// a cold load's Go side allocates per call, not per key.
func TestRangeAllocs(t *testing.T) {
	const keys, maxAllocs = 1024, 16
	st, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mem := offload.NewStore()
	for i := 0; i < keys; i++ {
		st.Set(key(i), val(i))
		mem.Set(key(i), val(i))
	}
	for _, kv := range []offload.KV{mem, st} {
		n := 0
		allocs := testing.AllocsPerRun(10, func() {
			n = 0
			if err := kv.Range(func(k, v []byte) error { n++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		if n != keys || allocs > maxAllocs {
			t.Errorf("%T: Range visited %d of %d keys in %.0f allocations, want at most %d", kv, n, keys, allocs, maxAllocs)
		}
	}
}
