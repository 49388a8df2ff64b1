package offload_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/kie"
	"kflex/internal/netsim"
)

// geometry is kvprog's globals as a heap holds them.
type geometry struct {
	table, mask, old, oldMask, cursor, redo uint64
	room                                    int64
}

func readGeometry(t *testing.T, ext *kflex.Extension) geometry {
	t.Helper()
	v := ext.Heap().ExtView()
	word := func(off int16) uint64 {
		w, err := v.Load(v.Base()+uint64(off), 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return geometry{
		table: word(kvprog.GlobTable), mask: word(kvprog.GlobMask),
		old: word(kvprog.GlobOld), oldMask: word(kvprog.GlobOldMask),
		cursor: word(kvprog.GlobCursor), redo: word(kvprog.GlobRedo),
		room: int64(word(kvprog.GlobRoom)),
	}
}

// tableKeys walks the table from Go as a lookup sees it — every chain of
// the live array, of the old one while a doubling is in flight (unless Old
// is Table: a doubling a cancel stopped before it installed its array), and
// the node in Redo when no chain reaches it — and counts the nodes that
// hold each key.
func tableKeys(t *testing.T, ext *kflex.Extension) map[string]int {
	t.Helper()
	v := ext.Heap().ExtView()
	g := readGeometry(t, ext)
	counts := make(map[string]int)
	seenRedo := g.redo == 0
	visit := func(n uint64) {
		k := make([]byte, kvprog.KeySize)
		if err := v.ReadInto(n+uint64(kvprog.NodeKey), k); err != nil {
			t.Fatal(err)
		}
		counts[string(k)]++
	}
	scan := func(tab, mask uint64) {
		for i := uint64(0); i <= mask; i++ {
			n, err := v.Load(v.Base()+tab+8*i, 8)
			for ; err == nil && n != 0; n, err = v.Load(n+uint64(kvprog.NodeNext), 8) {
				visit(n)
				seenRedo = seenRedo || n == g.redo
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	scan(g.table, g.mask)
	if g.old != 0 && g.old != g.table {
		scan(g.old, g.oldMask)
	}
	if !seenRedo {
		visit(g.redo)
	}
	return counts
}

// growOracle: 100 000 seeded SETs and GETs answer as a Go map does while the
// table doubles from MinBuckets at least three times. The key range widens
// with the run, so new keys keep arriving and doublings fall throughout it,
// and a GET draws from a range an eighth wider than the SETs', so some miss.
// Every 10 000 operations a walk of the heap finds each stored key in
// exactly one node, and Room is the buckets less the entries (the old
// array's buckets while a doubling is in flight).
func growOracle(t *testing.T, c *offload.Codec) {
	const ops, span = 100_000, 7000
	onBare(t, c, func(t *testing.T, d bareKV) {
		rng := rand.New(rand.NewSource(1))
		model := make(map[int]int)
		check := func() {
			g := readGeometry(t, d.Ext())
			buckets := g.mask + 1
			if g.old != 0 {
				buckets = g.oldMask + 1
			}
			if entries := int64(buckets) - g.room; entries != int64(len(model)) {
				t.Fatalf("geometry %+v counts %d entries, the map %d", g, entries, len(model))
			}
			counts := tableKeys(t, d.Ext())
			if len(counts) != len(model) {
				t.Fatalf("the heap holds %d keys, the map %d", len(counts), len(model))
			}
			for k := range model {
				if n := counts[string(key(k))]; n != 1 {
					t.Fatalf("key %d is in %d nodes", k, n)
				}
			}
		}
		var frame []byte
		for i := 0; i < ops; i++ {
			hi := 64 + i*span/ops
			if rng.Intn(2) == 0 {
				k := rng.Intn(hi)
				frame = c.AppendSet(frame[:0], key(k), val(i))
				if reply, _, err := d.Execute(0, frame); err != nil || string(reply) != c.Stored {
					t.Fatalf("op %d: SET %d: reply %q err %v", i, k, reply, err)
				}
				model[k] = i
			} else {
				k := rng.Intn(hi + hi/8)
				want := []byte(c.Miss)
				if v, ok := model[k]; ok {
					want = c.AppendHit(nil, val(v))
				}
				frame = c.AppendGet(frame[:0], key(k))
				if reply, _, err := d.Execute(0, frame); err != nil || !bytes.Equal(reply, want) {
					t.Fatalf("op %d: GET %d: reply %q err %v, want %q", i, k, reply, err, want)
				}
			}
			if i%10_000 == 9_999 {
				check()
			}
		}
		if g := readGeometry(t, d.Ext()); g.mask+1 < 8*kvprog.MinBuckets {
			t.Fatalf("%d keys in %d buckets: fewer than three doublings", len(model), g.mask+1)
		}
	})
}

// moveFragment returns the instrumented instructions of the rehash step:
// from its first load, of the Cursor it stops at, to the free of the
// retired array.
func moveFragment(t *testing.T, rep *kie.Report) (start, end int) {
	t.Helper()
	start, end = -1, -1
	for i, ins := range rep.Prog {
		switch {
		case start < 0 && ins.Op.Class() == insn.ClassLDX && ins.Src == insn.R8 && ins.Off == kvprog.GlobCursor:
			start = i
		case ins == insn.Call(kernel.HelperKflexFree):
			end = i
		}
	}
	if start < 0 || end < start {
		t.Fatalf("no move fragment: start %d, end %d", start, end)
	}
	return start, end
}

// run runs frame on h as the codec's front end does and returns the result.
func run(h *kflex.Handle, c *offload.Codec, frame []byte) (kflex.Result, *netsim.Packet, error) {
	pkt := &netsim.Packet{Data: frame}
	ctx := make([]byte, c.Hook.CtxSize)
	binary.LittleEndian.PutUint32(ctx, uint32(len(frame)))
	res, err := h.Run(pkt, ctx)
	return res, pkt, err
}

// audit makes the checks the supervisor's audit makes of a heap before a
// warm reload revives it: no held object or lock, every populated page
// mapped and expected by the allocator, and the allocator consistent.
func audit(t *testing.T, ext *kflex.Extension) {
	t.Helper()
	refs, locks := ext.AuditHeld()
	h, a := ext.Heap(), ext.Alloc()
	if err := a.CheckConsistency(); err != nil || refs != 0 || locks != 0 ||
		h.PopulatedPages() != h.MappedPages() || h.PopulatedPages() != a.ExpectedPopulatedPages() {
		t.Fatalf("audit: refs %d locks %d pages %d mapped %d expected %d consistency %v",
			refs, locks, h.PopulatedPages(), h.MappedPages(), a.ExpectedPopulatedPages(), err)
	}
}

// TestGrowCancel: a cancellation forced at every cancellation
// point a rehash step reaches — each heap access and each probe, the
// unlink, link and Redo stores among them — leaves every key findable in
// exactly one node, and the next invocation is served and leaves a heap the
// supervisor's audit passes. A heap-guard fault at the n-th heap access of
// the SET reaches each of them (a probe draws one at heap offset 0); n is
// swept from the step's first access until the step is left. Two steps
// are swept: the first after a doubling, and the one that retires the old
// array. One codec, as bulk-cancel: the step is the same bytecode under
// both, and each attempt fills a table of MinBuckets keys, which is seconds
// of -race time per codec.
func TestGrowCancel(t *testing.T) {
	c := &memcached.Codec
	const keys = kvprog.MinBuckets // a full table: the next SET miss doubles it
	rt := kflex.NewRuntime()
	c.RegisterHelpers(rt)
	spec := kflex.Spec{
		Name: "grow-cancel", Insns: kvprog.Build(c.Prog), Hook: c.Hook, Mode: kflex.ModeKFlex,
		HeapSize: 1 << 20, CancelThreshold: kflex.CancelNever,
	}
	ref, err := rt.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := ref.Report()
	ref.Close()
	start, end := moveFragment(t, rep)
	want := make(map[int]bool) // the fragment's CPs, by instruction
	for _, cp := range rep.CPs {
		if cp.Insn >= start && cp.Insn <= end {
			want[cp.Insn] = false
		}
	}
	var ks, vs [][]byte
	for k := 0; k < keys; k++ {
		ks, vs = append(ks, key(k)), append(vs, val(k))
	}
	set := func(t *testing.T, h *kflex.Handle, k int) {
		t.Helper()
		if res, pkt, err := run(h, c, c.AppendSet(nil, key(k), val(k))); err != nil || res.Cancelled != kflex.CancelNone || string(pkt.Reply) != c.Stored {
			t.Fatalf("SET %d: %+v reply %q err %v", k, res, pkt.Reply, err)
		}
	}
	for _, steps := range []int{0, keys/kvprog.StepBuckets - 1} {
		trial := keys + 1 + steps // the key whose SET miss runs the swept step
		// attempt loads a fresh heap, fills it, doubles the table, runs the
		// steps before the swept one, then the swept SET with plan armed. It
		// returns the abort's instruction (-1: none, the fault failed a
		// helper) and the fault's place in the plan's sequence (0: none).
		attempt := func(plan *faultinject.Plan, check bool) (pc int, seq uint64) {
			spec := spec
			spec.FaultPlan = plan
			ext, err := rt.Load(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer ext.Close()
			h := ext.Handle(0)
			if _, err := c.RunInit(h, keys); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < keys; i += offload.BulkBatch {
				if _, err := c.RunBulk(h, ks[i:i+offload.BulkBatch], vs[i:i+offload.BulkBatch]); err != nil {
					t.Fatal(err)
				}
			}
			for k := keys; k < trial; k++ {
				set(t, h, k)
			}
			if g := readGeometry(t, ext); g.old == 0 || g.cursor != uint64(steps*kvprog.StepBuckets) {
				t.Fatalf("before the swept step: %+v", g)
			}
			plan.Enable()
			res, pkt, err := run(h, c, c.AppendSet(nil, key(trial), val(trial)))
			plan.Disarm()
			ev := plan.Events()
			if len(ev) == 0 {
				if err != nil || string(pkt.Reply) != c.Stored {
					t.Fatalf("clean SET %d: reply %q err %v", trial, pkt.Reply, err)
				}
				return -1, 0
			}
			// A fault inside a helper (the allocator's header read in
			// kflex_free, say) fails the helper, not always the run.
			if err != nil {
				t.Fatalf("injected %v: %v", ev, err)
			}
			pc = -1
			if res.Abort != nil {
				pc = res.Abort.PC
			}
			if !check {
				return pc, ev[0].Seq
			}
			get := func(k int) {
				if _, pkt, err := run(h, c, c.AppendGet(nil, key(k))); err != nil || !bytes.Equal(pkt.Reply, c.AppendHit(nil, val(k))) {
					t.Fatalf("%v (abort at %d): GET %d: reply %q err %v", ev, pc, k, pkt.Reply, err)
				}
			}
			once := func(upTo int) {
				counts := tableKeys(t, ext)
				for k := 0; k < upTo; k++ {
					if counts[string(key(k))] != 1 {
						t.Fatalf("%v (abort at %d): key %d is in %d nodes", ev, pc, k, counts[string(key(k))])
					}
				}
				if counts[string(key(trial))] > 1 {
					t.Fatalf("%v (abort at %d): the cancelled key is in %d nodes", ev, pc, counts[string(key(trial))])
				}
			}
			once(trial)
			// The program finds the keys of the buckets the step was moving,
			// the one a cancel may have left in Redo among them.
			for k := 0; k < keys; k++ {
				if b := int(kvHash(key(k)) & (keys - 1)); b >= steps*kvprog.StepBuckets && b < (steps+1)*kvprog.StepBuckets {
					get(k)
				}
			}
			set(t, h, trial+1)
			audit(t, ext)
			once(trial)
			for _, k := range []int{0, keys - 1, keys, trial - 1, trial + 1} {
				get(k)
			}
			return pc, ev[0].Seq
		}
		// The step's first access is the SET's first of Cursor. Search for
		// the n that reaches it.
		pc, first := attempt(faultinject.NewPlan(1).FailNth(faultinject.HeapGuard, uint64(kvprog.GlobCursor), 1), false)
		if pc != start {
			t.Fatalf("steps=%d: the first Cursor access aborts at %d, not the step's first instruction %d", steps, pc, start)
		}
		nth := func(n uint64) *faultinject.Plan {
			return faultinject.NewPlan(1).FailNth(faultinject.HeapGuard, faultinject.AnyKey, n)
		}
		lo, hi := uint64(1), uint64(2)
		for _, seq := attempt(nth(hi), false); seq < first; _, seq = attempt(nth(hi), false) {
			lo, hi = hi, 2*hi
		}
		for lo < hi {
			if mid := (lo + hi) / 2; func() bool { _, seq := attempt(nth(mid), false); return seq < first }() {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for n := lo; ; n++ {
			pc, seq := attempt(nth(n), true)
			if _, ok := want[pc]; ok {
				want[pc] = true
			} else if seq == 0 || pc >= 0 {
				break // the SET ran clean, or went on past the step
			}
		}
	}
	for pc, hit := range want {
		if !hit {
			t.Errorf("no cancellation landed on the move fragment's CP at instruction %d (%s)", pc, insn.Disassemble(rep.Prog[pc:pc+1]))
		}
	}
}
