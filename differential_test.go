package kflex_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/ds"
	"kflex/internal/workload"
)

// The differential harness is the dynamic half of the lowering's
// translation validation (DESIGN.md §3.5; compile.Validate, run on every
// lowering loadPair makes, is the static half): every corpus program, run on the reference
// interpreter and the lowered tier with identical inputs, must produce
// byte-identical results, context writes, abort attribution, and work
// counters — Dispatches and Fused excepted, the two documented
// tier-divergent counters (the interpreter leaves them zero).

// normStats zeroes the tier-divergent counters.
func normStats(s kflex.Stats) kflex.Stats {
	s.Dispatches, s.Fused = 0, 0
	return s
}

// tierPair holds the same spec loaded on both execution tiers.
type tierPair struct {
	interp, lowered *kflex.Extension
	hi, hl          *kflex.Handle
	ctxI, ctxL      []byte
}

// loadPair gives each tier its own Runtime: kernel helper state (the
// prandom stream skiplist levels draw from) is per-Runtime and seeded
// deterministically, so separate Runtimes see identical helper behavior
// while a shared one would interleave the stream between tiers.
func loadPair(t *testing.T, spec kflex.Spec) *tierPair {
	t.Helper()
	spec.Interpret = true
	ei, err := kflex.NewRuntime().Load(spec)
	if err != nil {
		t.Fatalf("load interpreter tier: %v", err)
	}
	spec.Interpret = false
	el, err := kflex.NewRuntime().Load(spec)
	if err != nil {
		t.Fatalf("load lowered tier: %v", err)
	}
	t.Cleanup(func() { ei.Close(); el.Close() })
	if err := el.ValidateLowering(); err != nil {
		t.Fatal(err)
	}
	if ei.Pipeline().Tier != kflex.TierInterpreter || el.Pipeline().Tier != kflex.TierLowered {
		t.Fatalf("tiers = %q/%q, want interpreter/lowered",
			ei.Pipeline().Tier, el.Pipeline().Tier)
	}
	return &tierPair{
		interp: ei, lowered: el,
		hi: ei.Handle(0), hl: el.Handle(0),
		ctxI: make([]byte, spec.Hook.CtxSize),
		ctxL: make([]byte, spec.Hook.CtxSize),
	}
}

// step runs one bench-hook operation on both tiers and requires identical
// observable outcomes. It returns the (shared) result for flow decisions.
func (p *tierPair) step(t *testing.T, op, key, val uint64) kflex.Result {
	t.Helper()
	for _, c := range [][]byte{p.ctxI, p.ctxL} {
		binary.LittleEndian.PutUint64(c[0:], op)
		binary.LittleEndian.PutUint64(c[8:], key)
		binary.LittleEndian.PutUint64(c[16:], val)
		binary.LittleEndian.PutUint64(c[24:], 0)
	}
	ri, erri := p.hi.Run(nil, p.ctxI)
	rl, errl := p.hl.Run(nil, p.ctxL)
	if (erri == nil) != (errl == nil) {
		t.Fatalf("op %d key %d: errors diverge: interp %v, lowered %v", op, key, erri, errl)
	}
	if erri != nil {
		return kflex.Result{}
	}
	if ri.Ret != rl.Ret || ri.Cancelled != rl.Cancelled {
		t.Fatalf("op %d key %d: results diverge:\ninterp:  %+v\nlowered: %+v", op, key, ri, rl)
	}
	if normStats(ri.Stats) != normStats(rl.Stats) {
		t.Fatalf("op %d key %d: stats diverge:\ninterp:  %+v\nlowered: %+v", op, key, ri.Stats, rl.Stats)
	}
	switch {
	case (ri.Abort == nil) != (rl.Abort == nil):
		t.Fatalf("op %d key %d: abort presence diverges: %+v vs %+v", op, key, ri.Abort, rl.Abort)
	case ri.Abort != nil && (ri.Abort.Kind != rl.Abort.Kind || ri.Abort.PC != rl.Abort.PC):
		t.Fatalf("op %d key %d: abort diverges: %+v vs %+v", op, key, ri.Abort, rl.Abort)
	}
	if !bytes.Equal(p.ctxI, p.ctxL) {
		t.Fatalf("op %d key %d: ctx writes diverge:\ninterp:  %x\nlowered: %x", op, key, p.ctxI, p.ctxL)
	}
	if rl.Stats.Dispatches == 0 {
		t.Fatalf("op %d key %d: lowered tier reported no dispatches", op, key)
	}
	return rl
}

// driveCorpus runs a deterministic update/lookup/delete mix over the pair.
func driveCorpus(t *testing.T, p *tierPair, ops int) {
	t.Helper()
	p.step(t, ds.OpInit, 0, 0)
	lcg := uint64(99)
	next := func(n uint64) uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33 % n
	}
	for i := 0; i < ops; i++ {
		key := next(64) + 1
		switch next(4) {
		case 0, 1:
			p.step(t, ds.OpUpdate, key, key*7)
		case 2:
			p.step(t, ds.OpLookup, key, 0)
		case 3:
			p.step(t, ds.OpDelete, key, 0)
		}
	}
}

// TestDifferentialCorpus replays every data-structure program under every
// compilation-affecting spec knob on both tiers.
func TestDifferentialCorpus(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*kflex.Spec)
	}{
		{"default", func(*kflex.Spec) {}},
		{"perfmode", func(s *kflex.Spec) { s.PerfMode = true }},
		{"elision-off", func(s *kflex.Spec) { s.DisableElision = true }},
		{"shared-heap", func(s *kflex.Spec) { s.ShareHeap = true }},
	}
	for _, kind := range ds.Kinds {
		for _, v := range variants {
			t.Run(string(kind)+"/"+v.name, func(t *testing.T) {
				// The quantum bounds every op: rbtree under a shared heap
				// traverses forever on BOTH tiers (translate-on-store turns
				// stored null child pointers into nonzero user VAs, so the
				// null check never fires — a latent seed behavior, not a
				// tier divergence). The probe turns that into a
				// deterministic cancellation the tiers must still agree on.
				spec := kflex.Spec{
					Name:            string(kind) + "-" + v.name,
					Insns:           ds.Program(kind),
					Hook:            kflex.HookBench,
					Mode:            kflex.ModeKFlex,
					HeapSize:        ds.HeapSize(kind),
					QuantumInsns:    100_000,
					CancelThreshold: kflex.CancelNever,
				}
				v.mut(&spec)
				p := loadPair(t, spec)
				driveCorpus(t, p, 200)
			})
		}
	}
}

// TestDifferentialQuantumCancel forces terminate-probe cancellations (a
// traversal that blows a small instruction quantum) and checks both tiers
// cancel at the same probe with the same counters, invocation after
// invocation (CancelNever keeps the extension loaded).
func TestDifferentialQuantumCancel(t *testing.T) {
	spec := kflex.Spec{
		Name:            "diff-quantum",
		Insns:           ds.Program(ds.KindLinkedList),
		Hook:            kflex.HookBench,
		Mode:            kflex.ModeKFlex,
		HeapSize:        ds.HeapSize(ds.KindLinkedList),
		QuantumInsns:    2_000,
		CancelThreshold: kflex.CancelNever,
	}
	p := loadPair(t, spec)
	p.step(t, ds.OpInit, 0, 0)
	// Grow the list until lookups for a missing key trip the quantum.
	var cancelled int
	for k := uint64(1); k <= 512; k++ {
		if res := p.step(t, ds.OpUpdate, k, k); res.Cancelled != kflex.CancelNone {
			break
		}
		res := p.step(t, ds.OpLookup, 1<<40, 0) // miss: full traversal
		if res.Cancelled != kflex.CancelNone {
			cancelled++
			if cancelled >= 3 {
				break
			}
		}
	}
	if cancelled == 0 {
		t.Fatal("quantum never tripped; the variant exercised nothing")
	}
}

// TestDifferentialMemcached runs the full application offload — helper
// calls, packet parsing, dynamic allocation — on both tiers and compares
// every reply byte and the aggregate work counters.
func TestDifferentialMemcached(t *testing.T) {
	newApp := func(interpret bool) *memcached.KFlexMC {
		cfg := memcached.DefaultConfig(workload.Mix50)
		cfg.Preload = false
		cfg.Interpret = interpret
		k, err := memcached.NewKFlex(cfg, 1, false)
		if err != nil {
			t.Fatalf("NewKFlex(interpret=%v): %v", interpret, err)
		}
		t.Cleanup(k.Close)
		return k
	}
	ki, kl := newApp(true), newApp(false)
	gen := workload.NewGenerator(5, workload.Mix50)
	for i := 0; i < 200; i++ {
		req := gen.Next()
		key := workload.FormatKey(req.Key, memcached.KeySize)
		var frame []byte
		if req.Op == workload.OpSet {
			frame = memcached.EncodeSet(key, workload.FormatValue(req.Value, memcached.ValueSize))
		} else {
			frame = memcached.EncodeGet(key)
		}
		ri, _, erri := ki.Execute(0, frame)
		rl, _, errl := kl.Execute(0, frame)
		if (erri == nil) != (errl == nil) {
			t.Fatalf("op %d: errors diverge: interp %v, lowered %v", i, erri, errl)
		}
		if !bytes.Equal(ri, rl) {
			t.Fatalf("op %d: replies diverge:\ninterp:  %q\nlowered: %q", i, ri, rl)
		}
	}
	wi, wl := ki.WorkStats(), kl.WorkStats()
	if normStats(wi) != normStats(wl) {
		t.Fatalf("aggregate work diverges:\ninterp:  %+v\nlowered: %+v", wi, wl)
	}
	if wl.Dispatches == 0 || wl.Dispatches >= wl.Insns {
		t.Fatalf("lowered work = %+v, want 0 < dispatches < insns (fusion active)", wl)
	}
}

// TestPipelineStages checks the staged-pipeline record of a Load on both
// tiers, cold and from the compile cache: the stage names in order, which of
// them the cache served, and the lower stage's absence on the interpreter.
func TestPipelineStages(t *testing.T) {
	spec := kflex.Spec{
		Name:     "stages",
		Insns:    ds.Program(ds.KindHashMap),
		Hook:     kflex.HookBench,
		Mode:     kflex.ModeKFlex,
		HeapSize: ds.HeapSize(ds.KindHashMap),
	}
	for _, tc := range []struct {
		name      string
		interpret bool
		want      []string // stage names; a leading '*' marks one served from the cache on a reload
	}{
		{"lowered", false, []string{"decode", "*verify", "*instrument", "*lower", "heap", "link"}},
		{"interpreter", true, []string{"decode", "*verify", "*instrument", "heap", "link"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := spec
			spec.Interpret = tc.interpret
			rt := kflex.NewRuntime()
			var cold kflex.PipelineInfo
			for load, wantHit := range []bool{false, true} {
				ext, err := rt.Load(spec)
				if err != nil {
					t.Fatal(err)
				}
				ext.Close()
				pl := ext.Pipeline()
				if pl.CacheHit != wantHit {
					t.Fatalf("load %d: CacheHit = %v", load, pl.CacheHit)
				}
				if len(pl.Stages) != len(tc.want) {
					t.Fatalf("load %d: stages = %+v, want %v", load, pl.Stages, tc.want)
				}
				for i, st := range pl.Stages {
					name, cacheable := strings.CutPrefix(tc.want[i], "*")
					if st.Name != name || st.Cached != (cacheable && wantHit) || st.Cached && st.Duration != 0 {
						t.Fatalf("load %d: stage %d = %+v, want %q (cached: %v)", load, i, st, name, cacheable && wantHit)
					}
					if st.Out == 0 {
						t.Fatalf("load %d: stage %q reports no artifact size", load, name)
					}
					if wantHit && st.Out != cold.Stages[i].Out {
						t.Fatalf("reloaded %s artifact size %d != original %d", name, st.Out, cold.Stages[i].Out)
					}
				}
				cold = pl
			}
		})
	}

	p := loadPair(t, spec)
	pl, ip := p.lowered.Pipeline(), p.interp.Pipeline()
	if pl.Stage("lower").Out >= pl.Stage("instrument").Out {
		t.Fatalf("lowering did not shrink the stream: instrument %d -> lower %d",
			pl.Stage("instrument").Out, pl.Stage("lower").Out)
	}
	if m, ok := p.lowered.LoweredMetrics(); !ok || m.FusedGuardLoad+m.FusedGuardStore+m.FusedProbeBranch == 0 {
		t.Fatalf("lowered metrics = %+v ok=%v, want fused superinstructions", m, ok)
	}
	if _, ok := p.interp.LoweredMetrics(); ok {
		t.Fatal("interpreter tier reported lowered metrics")
	}
	if ip.SpecHash == pl.SpecHash {
		t.Fatal("Interpret knob did not change the spec fingerprint")
	}
}
