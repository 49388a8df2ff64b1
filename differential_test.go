package kflex_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/memcached"
	"kflex/internal/ds"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/refsem"
	"kflex/internal/workload"
)

// The differential harness is the dynamic half of the lowering's
// translation validation (DESIGN.md §3.5; compile.Validate, run on every
// lowering loadPair makes, is the static half): every corpus program, run on
// the lowered code and on the reference semantics (internal/refsem, which
// shares no code with the VM) with identical inputs, must produce identical
// results, context writes, abort attribution, work counters — Dispatches and
// Fused excepted, which only the lowered code has — and heap images.

// refOf is the part of a lowered Result the reference semantics defines.
func refOf(r kflex.Result) refsem.Result {
	s := r.Stats
	out := refsem.Result{Ret: r.Ret, Cancelled: refsem.Cancel(r.Cancelled.String()),
		Stats: refsem.Stats{Insns: s.Insns, Guards: s.Guards, GuardsRead: s.GuardsRead, Probes: s.Probes, HelperCalls: s.HelperCalls}}
	if r.Abort != nil {
		out.PC = r.Abort.PC
	}
	return out
}

// loadRef loads spec on a Runtime of its own and returns the extension with
// the reference semantics bound to its heap, allocator, lock table and
// kernel; the extension's own Handles never run. Each side of a comparison
// gets its own Runtime: kernel helper state (the prandom stream skiplist
// levels draw from, the tick counter) is per-Runtime and seeded
// deterministically, so separate Runtimes see identical helper behaviour.
func loadRef(t testing.TB, spec kflex.Spec) (*kflex.Extension, *refsem.Machine, error) {
	t.Helper()
	rt := kflex.NewRuntime()
	ext, err := rt.Load(spec)
	if err != nil {
		return nil, nil, err
	}
	t.Cleanup(ext.Close)
	return ext, newRef(t, ext, rt.Kernel(), spec), nil
}

// newRef binds the reference semantics to ext, loaded from spec on kernel k.
func newRef(t testing.TB, ext *kflex.Extension, k *kernel.Kernel, spec kflex.Spec) *refsem.Machine {
	t.Helper()
	cfg := refsem.Config{
		Prog: ext.Report().Prog, Callback: spec.Callback, Hook: spec.Hook, Kernel: k,
		Quantum: spec.QuantumInsns, Threshold: spec.CancelThreshold,
	}
	if h := ext.Heap(); h != nil {
		cfg.Heap, cfg.Alloc, cfg.Lock = h, ext.Alloc(), ext.ExtLocks()
	}
	m, err := refsem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameAsRef fails t unless one lowered invocation matches the reference
// semantics' run of it: both err or neither, and on success the same
// defined part of the Result.
func sameAsRef(t testing.TB, what string, ref refsem.Result, errR error, res kflex.Result, errL error) {
	t.Helper()
	if (errR == nil) != (errL == nil) {
		t.Fatalf("%s: errors diverge: reference %v, lowered %v", what, errR, errL)
	}
	if got := refOf(res); errL == nil && got != ref {
		t.Fatalf("%s: lowered code diverges from the reference semantics:\nreference: %+v\nlowered:   %+v", what, ref, got)
	}
}

// tierPair holds one spec loaded twice: lowered runs through its Handle,
// ref is the reference semantics over refExt.
type tierPair struct {
	lowered, refExt *kflex.Extension
	hl              *kflex.Handle
	ref             *refsem.Machine
	ctxR, ctxL      []byte
	cancelled       int
}

func loadPair(t *testing.T, spec kflex.Spec) *tierPair {
	t.Helper()
	el, err := kflex.NewRuntime().Load(spec)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Cleanup(el.Close)
	if err := el.ValidateLowering(); err != nil {
		t.Fatal(err)
	}
	er, ref, err := loadRef(t, spec)
	if err != nil {
		t.Fatalf("load for the reference semantics: %v", err)
	}
	return &tierPair{
		lowered: el, refExt: er, hl: el.Handle(0), ref: ref,
		ctxR: make([]byte, spec.Hook.CtxSize),
		ctxL: make([]byte, spec.Hook.CtxSize),
	}
}

// step runs one bench-hook operation on both sides and requires identical
// observable outcomes. It returns the lowered result for flow decisions.
func (p *tierPair) step(t *testing.T, op, key, val uint64) kflex.Result {
	t.Helper()
	for _, c := range [][]byte{p.ctxR, p.ctxL} {
		binary.LittleEndian.PutUint64(c[0:], op)
		binary.LittleEndian.PutUint64(c[8:], key)
		binary.LittleEndian.PutUint64(c[16:], val)
		binary.LittleEndian.PutUint64(c[24:], 0)
	}
	rr, errR := p.ref.Run(nil, p.ctxR)
	rl, errL := p.hl.Run(nil, p.ctxL)
	what := fmt.Sprintf("op %d key %d", op, key)
	sameAsRef(t, what, rr, errR, rl, errL)
	if errL != nil {
		return kflex.Result{}
	}
	if !bytes.Equal(p.ctxR, p.ctxL) {
		t.Fatalf("%s: ctx writes diverge:\nreference: %x\nlowered:   %x", what, p.ctxR, p.ctxL)
	}
	if err := refsem.DiffHeaps(p.refExt.Heap(), p.lowered.Heap()); err != nil {
		t.Fatalf("%s: heap images diverge: %v", what, err)
	}
	if rl.Stats.Dispatches == 0 {
		t.Fatalf("%s: lowered code reported no dispatches", what)
	}
	if rl.Cancelled != kflex.CancelNone {
		p.cancelled++
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
// compilation-affecting spec knob on the lowered code and the reference
// semantics.
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
				// traverses forever (translate-on-store turns stored null
				// child pointers into nonzero user VAs, so the null check
				// never fires — a latent seed behavior, not a lowering
				// fault). The probe turns that into a deterministic
				// cancellation both sides must still agree on.
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
// traversal that blows a small instruction quantum) and checks that the
// lowered code cancels at the probe the reference semantics cancels at, with
// the same counters, invocation after invocation (CancelNever keeps the
// extension loaded) — without a callback, and with one that adjusts the
// default return code (§4.3).
func TestDifferentialQuantumCancel(t *testing.T) {
	for _, row := range []struct {
		name     string
		callback []insn.Instruction
	}{
		{"default", nil},
		{"callback", asm.New().Mov(insn.R0, insn.R1).Add(insn.R0, 100).Exit().MustAssemble()},
	} {
		t.Run(row.name, func(t *testing.T) {
			spec := kflex.Spec{
				Name:            "diff-quantum",
				Insns:           ds.Program(ds.KindLinkedList),
				Hook:            kflex.HookBench,
				Mode:            kflex.ModeKFlex,
				HeapSize:        ds.HeapSize(ds.KindLinkedList),
				QuantumInsns:    2_000,
				CancelThreshold: kflex.CancelNever,
				Callback:        row.callback,
			}
			p := loadPair(t, spec)
			p.step(t, ds.OpInit, 0, 0)
			// Grow the list until lookups for a missing key trip the quantum.
			for k := uint64(1); k <= 512 && p.cancelled < 3; k++ {
				if res := p.step(t, ds.OpUpdate, k, k); res.Cancelled != kflex.CancelNone {
					break
				}
				res := p.step(t, ds.OpLookup, 1<<40, 0) // miss: full traversal
				if res.Cancelled != kflex.CancelNone && row.callback != nil && res.Ret != kflex.HookBench.DefaultRet+100 {
					t.Fatalf("cancelled ret = %d, want the callback's %d", res.Ret, kflex.HookBench.DefaultRet+100)
				}
			}
			if p.cancelled == 0 {
				t.Fatal("quantum never tripped; the variant exercised nothing")
			}
		})
	}
}

// TestDifferentialMapAtomics runs a 4-byte compare-and-exchange on a map
// value whose expected value in R0 has its upper half set: the comparison is
// as wide as the access, so it succeeds, on a map value as in the heap.
func TestDifferentialMapAtomics(t *testing.T) {
	prog := asm.New().
		StoreImm(insn.R10, -4, 3, 4).
		MovImm(insn.R1, 1).
		Mov(insn.R2, insn.R10).
		Add(insn.R2, -4).
		Call(kernel.HelperMapLookup).
		JmpImm(insn.JmpEq, insn.R0, 0, "miss").
		Mov(insn.R6, insn.R0).
		StoreImm(insn.R6, 0, 5, 8).
		I(insn.LoadImm(insn.R0, 1<<32|5)).
		MovImm(insn.R1, 7).
		I(insn.Atomic(insn.AtomicCmpXchg, insn.R6, 0, insn.R1, 4)).
		Load(insn.R0, insn.R6, 0, 8).
		Exit().
		Label("miss").
		Ret(99).
		MustAssemble()
	spec := kflex.Spec{Name: "map-cmpxchg", Insns: prog, Hook: kflex.HookBench, Mode: kflex.ModeEBPF}
	var rts [2]*kflex.Runtime
	var exts [2]*kflex.Extension
	for i := range rts {
		rts[i] = kflex.NewRuntime()
		m, err := rts[i].NewLRUMap(1, 16, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		// An LRU lookup of a missing key misses: store the key first.
		if err := m.Update([]byte{3, 0, 0, 0}, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
		ext, err := rts[i].Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ext.Close)
		exts[i] = ext
	}
	rr, errR := newRef(t, exts[1], rts[1].Kernel(), spec).Run(nil, make([]byte, kflex.HookBench.CtxSize))
	rl, errL := exts[0].Handle(0).Run(nil, make([]byte, kflex.HookBench.CtxSize))
	sameAsRef(t, "cmpxchg", rr, errR, rl, errL)
	if rl.Ret != 7 {
		t.Fatalf("ret = %d, want 7 (the exchange happened)", rl.Ret)
	}
}

// TestDifferentialMemcached runs the full application offload — helper
// calls, packet parsing, dynamic allocation — on the lowered code and the
// reference semantics, from one initialised table each, and compares every
// result, every reply byte and the heap images.
func TestDifferentialMemcached(t *testing.T) {
	cfg := memcached.DefaultConfig(workload.Mix50)
	cfg.Preload = false
	var apps [2]*memcached.KFlexMC
	for i := range apps {
		k, err := memcached.NewKFlex(cfg, 1, false)
		if err != nil {
			t.Fatalf("NewKFlex: %v", err)
		}
		t.Cleanup(k.Close)
		apps[i] = k
	}
	el, er := apps[0].Ext(), apps[1].Ext()
	if err := el.ValidateLowering(); err != nil {
		t.Fatal(err)
	}
	ref := newRef(t, er, er.Kernel(), kflex.Spec{Hook: memcached.Codec.Hook, CancelThreshold: cfg.CancelThreshold})
	var work kflex.Stats
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
		var pkts [2]netsim.Packet
		var ctxs [2][]byte
		for j := range pkts {
			pkts[j].Data = frame
			ctxs[j] = make([]byte, memcached.Codec.Hook.CtxSize)
			binary.LittleEndian.PutUint32(ctxs[j], uint32(len(frame)))
		}
		rr, errR := ref.Run(&pkts[1], ctxs[1])
		rl, errL := el.Handle(0).Run(&pkts[0], ctxs[0])
		sameAsRef(t, fmt.Sprintf("op %d", i), rr, errR, rl, errL)
		if !bytes.Equal(pkts[0].Reply, pkts[1].Reply) {
			t.Fatalf("op %d: replies diverge:\nreference: %q\nlowered:   %q", i, pkts[1].Reply, pkts[0].Reply)
		}
		work.Add(rl.Stats)
	}
	if err := refsem.DiffHeaps(er.Heap(), el.Heap()); err != nil {
		t.Fatalf("heap images diverge: %v", err)
	}
	if work.Dispatches == 0 || work.Dispatches >= work.Insns {
		t.Fatalf("lowered work = %+v, want 0 < dispatches < insns (fusion active)", work)
	}
}

// TestPipelineStages checks the staged-pipeline record of a Load, cold and
// from the compile cache: the stage names in order and which of them the
// cache served.
func TestPipelineStages(t *testing.T) {
	spec := kflex.Spec{
		Name:     "stages",
		Insns:    ds.Program(ds.KindHashMap),
		Hook:     kflex.HookBench,
		Mode:     kflex.ModeKFlex,
		HeapSize: ds.HeapSize(ds.KindHashMap),
	}
	// Stage names; a leading '*' marks one served from the cache on a reload.
	want := []string{"decode", "*verify", "*instrument", "*lower", "heap", "link"}
	t.Run("lowered", func(t *testing.T) {
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
			if len(pl.Stages) != len(want) {
				t.Fatalf("load %d: stages = %+v, want %v", load, pl.Stages, want)
			}
			for i, st := range pl.Stages {
				name, cacheable := strings.CutPrefix(want[i], "*")
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

	p := loadPair(t, spec)
	out := make(map[string]int)
	for _, st := range p.lowered.Pipeline().Stages {
		out[st.Name] = st.Out
	}
	if out["lower"] >= out["instrument"] {
		t.Fatalf("lowering did not shrink the stream: instrument %d -> lower %d", out["instrument"], out["lower"])
	}
	if m, ok := p.lowered.LoweredMetrics(); !ok || m.FusedGuardLoad+m.FusedGuardStore+m.FusedProbeBranch == 0 {
		t.Fatalf("lowered metrics = %+v ok=%v, want fused superinstructions", m, ok)
	}
}
