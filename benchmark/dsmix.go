package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"kflex"
	"kflex/internal/ds"
)

var dsKinds = [...]ds.Kind{ds.KindHashMap, ds.KindRBTree, ds.KindSkipList}

const (
	dsUniverse = 32 << 10 // keys are drawn from [1, dsUniverse]
	dsPreload  = 16 << 10 // keys each structure holds before the first op
	dsSlotOps  = 600      // ops to a timing slot: ~1.4 us each, and a multiple of the three structures
)

type dsOp struct {
	op       uint64 // ds.OpLookup, ds.OpUpdate or ds.OpDelete
	key, val uint64
}

// dsResult is what the oracle expects an op to return.
type dsResult struct {
	found bool
	val   uint64
}

// dsMix is the bare-extension workload: hashmap, rbtree and skiplist
// extensions on one runtime, ops round-robin over the three, 50% lookup /
// 40% update / 10% delete on uniform keys. The oracle is the native twin of
// each structure (ds.NewNative) fed the same ops.
type dsMix struct {
	n       int
	preload []uint64
	opsList []dsOp
	// As with the mc streams, the same ops run every pass: first holds the
	// results of the pass that starts from the preloaded state, steady
	// those of every later pass.
	first, steady []dsResult

	rt     *kflex.Runtime
	off    [len(dsKinds)]*ds.Offloaded
	warmed bool

	before, after dsCounters
}

type dsCounters struct{ allocs, frees, refills, pages uint64 }

func newDSMix(scale int) *dsMix { return &dsMix{n: 60_000 / scale} }

func (w *dsMix) generate(seed int64) {
	r := rand.New(rand.NewSource(seed))
	w.preload = make([]uint64, dsPreload)
	for i, k := range r.Perm(dsUniverse)[:dsPreload] {
		w.preload[i] = uint64(k) + 1
	}
	w.opsList = make([]dsOp, w.n)
	for i := range w.opsList {
		op := dsOp{key: uint64(r.Intn(dsUniverse)) + 1}
		switch p := r.Intn(100); {
		case p < 50:
			op.op = ds.OpLookup
		case p < 90:
			op.op, op.val = ds.OpUpdate, r.Uint64()
		default:
			op.op = ds.OpDelete
		}
		w.opsList[i] = op
	}
	natives := w.nativeTwins()
	replay := func() []dsResult {
		out := make([]dsResult, w.n)
		for i, op := range w.opsList {
			out[i] = applyDS(natives[i%len(dsKinds)], op)
		}
		return out
	}
	w.first = replay()
	w.steady = replay()
}

// nativeTwins returns the native structures in the preloaded state.
func (w *dsMix) nativeTwins() [len(dsKinds)]ds.Store {
	var out [len(dsKinds)]ds.Store
	for i, kind := range dsKinds {
		out[i] = ds.NewNative(kind)
		for _, k := range w.preload {
			out[i].Update(k, preloadValue(k))
		}
	}
	return out
}

func preloadValue(key uint64) uint64 { return key * 3 }

func applyDS(s ds.Store, op dsOp) (res dsResult) {
	switch op.op {
	case ds.OpLookup:
		res.val, res.found = s.Lookup(op.key)
	case ds.OpUpdate:
		s.Update(op.key, op.val)
	case ds.OpDelete:
		res.found = s.Delete(op.key)
	}
	return res
}

func (w *dsMix) setup() error {
	w.warmed = false
	w.rt = kflex.NewRuntime()
	for i, kind := range dsKinds {
		o, err := ds.Load(w.rt, kind, false)
		if err != nil {
			return err
		}
		w.off[i] = o
		for _, k := range w.preload {
			if err := o.TryUpdate(k, preloadValue(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *dsMix) teardown() {
	for i, o := range w.off {
		if o != nil {
			o.Close()
			w.off[i] = nil
		}
	}
}

func (w *dsMix) ops() int     { return w.n }
func (w *dsMix) slots() int   { return slotsOf(w.n, dsSlotOps) }
func (w *dsMix) pooled() bool { return false }

func (w *dsMix) counters() (c dsCounters) {
	for _, o := range w.off {
		a := o.Ext.Alloc().Stats()
		c.allocs += a.Allocs
		c.frees += a.Frees
		c.refills += a.Refills
		c.pages += o.Ext.Heap().PopulatedPages()
	}
	return c
}

// doDS runs one op on the offloaded structure and reports whether its result
// agrees with want; full also compares a lookup's value.
func doDS(o *ds.Offloaded, op dsOp, want dsResult, full bool) bool {
	switch op.op {
	case ds.OpLookup:
		v, found := o.Lookup(op.key)
		return found == want.found && (!full || v == want.val)
	case ds.OpUpdate:
		return o.TryUpdate(op.key, op.val) == nil
	default:
		return o.Delete(op.key) == want.found
	}
}

func (w *dsMix) pass(kind passKind, out []int64, tr *tracer) (time.Duration, int) {
	exp := w.steady
	if !w.warmed {
		w.warmed, exp = true, w.first
	}
	failed := 0
	if kind == passTraced {
		w.before = w.counters()
	}
	start := time.Now()
	clock := newSlotClock(dsSlotOps, out)
	for i, op := range w.opsList {
		o := w.off[i%len(dsKinds)]
		ok := false
		switch kind {
		case passThroughput:
			ok = doDS(o, op, exp[i], false)
			clock.done(i, w.n)
		case passLatency:
			t0 := time.Now()
			ok = doDS(o, op, exp[i], true)
			out[i] = int64(time.Since(t0))
		case passTraced:
			root := tr.begin("request", i, -1)
			call := tr.begin("ds.op", i, root)
			ok = doDS(o, op, exp[i], true)
			tr.end(call)
			tr.end(root)
		}
		if !ok {
			failed++
		}
	}
	elapsed := time.Since(start)
	if kind == passTraced {
		w.after = w.counters()
	}
	return elapsed, failed
}

// firstOf returns the first op index at or after lo that belongs to
// structure k (ops go round-robin over the structures).
func firstOf(k, lo int) int {
	return lo + (k-lo%len(dsKinds)+len(dsKinds))%len(dsKinds)
}

// Bench-hook context offsets (kernel.HookBench: op, a, b, out).
const (
	ctxOp, ctxKey, ctxVal, ctxOut = 0, 8, 16, 24
)

func (w *dsMix) layers(budget time.Duration, e2eNs float64, m map[string]float64) error {
	n := w.n
	f := float64(n)
	m["alloc.allocs_per_op"] = float64(w.after.allocs-w.before.allocs) / f
	m["alloc.frees_per_op"] = float64(w.after.frees-w.before.frees) / f
	m["alloc.refills_per_kop"] = 1000 * float64(w.after.refills-w.before.refills) / f
	m["heap.populated_pages"] = float64(w.after.pages)

	// Native twins brought to the steady state the offloaded ones are in.
	natives := w.nativeTwins()
	for i, op := range w.opsList {
		applyDS(natives[i%len(dsKinds)], op)
	}

	var handles [len(dsKinds)]*kflex.Handle
	for i, o := range w.off {
		handles[i] = o.Ext.Handle(0)
	}
	ctx := make([]byte, kflex.HookBench.CtxSize)
	// Counts come from each level's first replay only — the same ops at the
	// same point of every run — because a re-inserted skiplist key draws a
	// fresh random height, so later replays walk slightly different shapes.
	var stats kflex.Stats
	cancelled, bad, counted := 0, 0, false
	var insns [len(dsKinds)]uint64
	var insnsCounted [len(dsKinds)]bool

	levels := []level{
		func(lo, hi int) int { // Offloaded.*: the level the end-to-end passes drive
			for i := lo; i < hi; i++ {
				doDS(w.off[i%len(dsKinds)], w.opsList[i], dsResult{}, false)
			}
			return hi - lo
		},
		func(lo, hi int) int { // Handle.Run on the same ops
			for i := lo; i < hi; i++ {
				op := w.opsList[i]
				binary.LittleEndian.PutUint64(ctx[ctxOp:], op.op)
				binary.LittleEndian.PutUint64(ctx[ctxKey:], op.key)
				binary.LittleEndian.PutUint64(ctx[ctxVal:], op.val)
				binary.LittleEndian.PutUint64(ctx[ctxOut:], 0)
				res, err := handles[i%len(dsKinds)].Run(nil, ctx)
				if err != nil {
					bad++
				}
				if !counted {
					stats.Add(res.Stats)
					if res.Cancelled != kflex.CancelNone {
						cancelled++
					}
				}
			}
			counted = counted || hi == n
			return hi - lo
		},
	}
	// Per structure, offloaded and native: each structure sees the same op
	// sequence whether or not the other two are interleaved with it.
	for k := range dsKinds {
		levels = append(levels, func(lo, hi int) (ran int) {
			before := w.off[k].Insns()
			for i := firstOf(k, lo); i < hi; i += len(dsKinds) {
				doDS(w.off[k], w.opsList[i], dsResult{}, false)
				ran++
			}
			if !insnsCounted[k] {
				insns[k] += w.off[k].Insns() - before
				insnsCounted[k] = hi == n
			}
			return ran
		})
	}
	for k := range dsKinds {
		levels = append(levels, func(lo, hi int) (ran int) {
			for i := firstOf(k, lo); i < hi; i += len(dsKinds) {
				applyDS(natives[k], w.opsList[i])
				ran++
			}
			return ran
		})
	}
	ns := timeLevels(budget, n, levelChunk, levels...)
	if bad > 0 {
		return fmt.Errorf("%d replayed runs errored", bad)
	}

	offloaded, run := ns[0], ns[1]
	vmMetrics(m, stats, cancelled, n)
	m["kflex.run_ns"] = run
	logRatio := 0.0
	for k, kind := range dsKinds {
		m["ds."+string(kind)+".ns_per_op"] = ns[2+k]
		m["ds."+string(kind)+".insns_per_op"] = float64(insns[k]) / float64((n+len(dsKinds)-1-k)/len(dsKinds))
		logRatio += math.Log(ns[2+k] / ns[2+len(dsKinds)+k])
	}
	m["ds.native_ratio"] = math.Exp(logRatio / float64(len(dsKinds)))
	// Two levels: the ds wrapper's self time (offloaded - run) plus run.
	m["trace.coverage"] = offloaded / e2eNs

	if err := microVM(m); err != nil {
		return err
	}
	m["vm.ns_per_insn"] = (run - m["vm.null_run_ns"]) / m["vm.insns_per_op"]
	return w.skiplistLoad(m)
}

// skiplistLoad times Runtime.Load of the skiplist program directly: cold on
// fresh runtimes, then once more on the last runtime for the cached load.
func (w *dsMix) skiplistLoad(m map[string]float64) error {
	spec := kflex.Spec{
		Name: "skiplist-load", Insns: ds.Program(ds.KindSkipList), Hook: kflex.HookBench,
		Mode: kflex.ModeKFlex, HeapSize: ds.HeapSize(ds.KindSkipList),
	}
	var cold loadSamples
	var cached []float64
	for i := 0; i < loadReps; i++ {
		rt := kflex.NewRuntime()
		runtime.GC() // a load must not pay for its predecessor's 64 MiB heap
		t0 := time.Now()
		ext, err := rt.Load(spec)
		if err != nil {
			return err
		}
		cold.add(time.Since(t0), ext.Pipeline())
		if i == 0 {
			pipelineCounts(m, ext)
		}
		ext.Close()

		t0 = time.Now()
		again, err := rt.Load(spec)
		if err != nil {
			return err
		}
		cached = append(cached, us(time.Since(t0)))
		again.Close()
	}
	cold.report(m)
	m["kflex.load_cached_us"] = median(cached)
	return nil
}
