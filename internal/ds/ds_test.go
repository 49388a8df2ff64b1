package ds

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/faultinject"
)

// loadDS loads the bytecode twin of kind, failing the test on any error.
func loadDS(t *testing.T, kind Kind, perf bool) *Offloaded {
	t.Helper()
	rt := kflex.NewRuntime()
	o, err := Load(rt, kind, perf)
	if err != nil {
		t.Fatalf("load %s: %v", kind, err)
	}
	t.Cleanup(o.Close)
	return o
}

// runEquivalence drives both twins with the same random operation sequence
// and demands identical observable behavior.
func runEquivalence(t *testing.T, kind Kind, ops int, seed int64, perf bool) {
	t.Helper()
	o := loadDS(t, kind, perf)
	n := NewNative(kind)
	r := rand.New(rand.NewSource(seed))
	const keySpace = 160
	for i := 0; i < ops; i++ {
		key := uint64(r.Intn(keySpace)) + 1
		val := r.Uint64()%1000 + 1
		switch r.Intn(3) {
		case 0:
			o.Update(key, val)
			n.Update(key, val)
		case 1:
			gv, gok := o.Lookup(key)
			wv, wok := n.Lookup(key)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("%s op %d: lookup(%d) = (%d,%v), native (%d,%v)",
					kind, i, key, gv, gok, wv, wok)
			}
		case 2:
			g := o.Delete(key)
			w := n.Delete(key)
			if g != w {
				t.Fatalf("%s op %d: delete(%d) = %v, native %v", kind, i, key, g, w)
			}
		}
		if kind == KindRBTree && i%64 == 0 {
			if !n.(*nativeRB).check() {
				t.Fatalf("native rbtree invariant broken at op %d", i)
			}
		}
	}
	// Final sweep: every key agrees.
	for key := uint64(1); key <= keySpace; key++ {
		gv, gok := o.Lookup(key)
		wv, wok := n.Lookup(key)
		if gok != wok || (gok && gv != wv) {
			t.Fatalf("%s final: lookup(%d) = (%d,%v), native (%d,%v)", kind, key, gv, gok, wv, wok)
		}
	}
}

// TestFailedInitClosesExtension: an init whose kflex_malloc fails (a fault
// plan fails every allocation) is LoadSpec's error, and the extension it
// loaded is closed, heap and all, since no Offloaded reaches the caller to
// close it. Every kind whose init allocates, ZADD's among them.
func TestFailedInitClosesExtension(t *testing.T) {
	failed := 0
	for _, kind := range allKinds {
		plan := faultinject.NewPlan(1).SetRate(faultinject.AllocFail, 1)
		plan.Enable()
		rt := kflex.NewRuntime()
		withPlan := func(s *kflex.Spec) { s.FaultPlan = plan }
		if o, err := LoadSpec(rt, kind, withPlan); plan.Injected() == 0 {
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			o.Close() // an init that allocates nothing
			continue
		} else if err == nil {
			t.Fatalf("%s: init's allocation failed, and LoadSpec returned no error", kind)
		}
		// The same failure, with the extension in hand: LoadSpec is this
		// load and start.
		spec := kflex.Spec{Name: string(kind), Insns: Program(kind), Hook: kflex.HookBench, Mode: kflex.ModeKFlex, HeapSize: HeapSize(kind)}
		withPlan(&spec)
		ext, err := rt.Load(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := start(ext, kind); err == nil || !ext.Heap().Closed() {
			t.Fatalf("%s: start returned %v with the heap closed=%v, want an error and a closed heap", kind, err, ext.Heap().Closed())
		}
		failed++
	}
	if failed == 0 {
		t.Fatal("no kind's init allocates")
	}
}

// TestOpRoundTripsEveryOpCode drives the encoder directly, one call per op
// code: what Op puts in the context is what the program's prologue dispatches
// on, the out word is cleared before each run and carries a lookup's value
// after it, and the counters advance by what the Result reports.
func TestOpRoundTripsEveryOpCode(t *testing.T) {
	o, err := LoadSpec(kflex.NewRuntime(), KindHashMap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var insns uint64
	for i, step := range []struct {
		op, key, val uint64
		ret, out     uint64
	}{
		{OpLookup, 7, 0, RetMiss, 0},
		{OpUpdate, 7, 41, RetMiss, 0},
		{OpLookup, 7, 0, RetFound, 41},
		{OpLookup, 8, 0, RetMiss, 0}, // the 41 of the run before is gone
		{OpUpdate, 7, 42, RetMiss, 0},
		{OpLookup, 7, 0, RetFound, 42},
		{OpDelete, 7, 0, RetFound, 0},
		{OpDelete, 7, 0, RetMiss, 0},
		{OpInit, 0, 0, RetMiss, 0},
		{17, 7, 0, RetMiss, 0}, // no such op: the prologue falls through
	} {
		before := o.Insns()
		res, err := o.Op(step.op, step.key, step.val)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Ret != step.ret || o.Out() != step.out {
			t.Fatalf("step %d: op %d key %d: ret = %d, out = %d, want %d and %d",
				i, step.op, step.key, res.Ret, o.Out(), step.ret, step.out)
		}
		if res.Stats.Insns == 0 || o.Insns()-before != res.Stats.Insns {
			t.Fatalf("step %d: Insns advanced by %d, the run executed %d", i, o.Insns()-before, res.Stats.Insns)
		}
		insns += res.Stats.Insns
	}
	if insns == 0 || o.Guards() == 0 {
		t.Fatalf("counters: %d insns, %d guards", insns, o.Guards())
	}
}

func TestHashMapEquivalence(t *testing.T)  { runEquivalence(t, KindHashMap, 3000, 1, false) }
func TestListEquivalence(t *testing.T)     { runEquivalence(t, KindLinkedList, 1500, 2, false) }
func TestRBTreeEquivalence(t *testing.T)   { runEquivalence(t, KindRBTree, 4000, 3, false) }
func TestSkipListEquivalence(t *testing.T) { runEquivalence(t, KindSkipList, 3000, 4, false) }
func TestCountMinEquivalence(t *testing.T) {
	runEquivalence(t, KindCountMin, 2000, 5, false)
}
func TestCountSketchEquivalence(t *testing.T) {
	runEquivalence(t, KindCountSketch, 2000, 6, false)
}

// Performance mode must not change behavior for correct extensions (§3.2).
func TestPerfModeEquivalence(t *testing.T) {
	for _, kind := range []Kind{KindLinkedList, KindSkipList, KindRBTree} {
		runEquivalence(t, kind, 1200, 7, true)
	}
}

func TestSkipListRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for seed := int64(10); seed < 14; seed++ {
		runEquivalence(t, KindSkipList, 1500, seed, false)
	}
}

func TestRBTreeRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for seed := int64(20); seed < 24; seed++ {
		runEquivalence(t, KindRBTree, 2500, seed, false)
	}
}

// TestRBTreeSequential exercises ascending and descending insertion (the
// rebalancing-heavy paths) plus full teardown.
func TestRBTreeSequential(t *testing.T) {
	o := loadDS(t, KindRBTree, false)
	n := NewNative(KindRBTree)
	const N = 512
	for i := uint64(1); i <= N; i++ {
		o.Update(i, i*10)
		n.Update(i, i*10)
	}
	for i := uint64(N); i >= 1; i-- {
		gv, ok := o.Lookup(i)
		if !ok || gv != i*10 {
			t.Fatalf("ascending insert: lookup(%d) = %d,%v", i, gv, ok)
		}
	}
	// Delete every other key, then verify.
	for i := uint64(2); i <= N; i += 2 {
		if !o.Delete(i) || !n.Delete(i) {
			t.Fatalf("delete(%d) failed", i)
		}
	}
	if !n.(*nativeRB).check() {
		t.Fatal("native invariant broken")
	}
	for i := uint64(1); i <= N; i++ {
		_, ok := o.Lookup(i)
		wantOK := i%2 == 1
		if ok != wantOK {
			t.Fatalf("after deletes: lookup(%d) = %v, want %v", i, ok, wantOK)
		}
	}
	// Tear down completely.
	for i := uint64(1); i <= N; i += 2 {
		if !o.Delete(i) {
			t.Fatalf("teardown delete(%d) failed", i)
		}
	}
	if _, ok := o.Lookup(1); ok {
		t.Fatal("tree not empty after teardown")
	}
}

func TestListLIFOShadowing(t *testing.T) {
	// Constant-time update pushes at the head, so the newest binding for
	// a key shadows older ones and deletes peel them off newest-first —
	// in both twins.
	o := loadDS(t, KindLinkedList, false)
	n := NewNative(KindLinkedList)
	for _, v := range []uint64{10, 20, 30} {
		o.Update(7, v)
		n.Update(7, v)
	}
	for want := uint64(30); want >= 10; want -= 10 {
		gv, ok := o.Lookup(7)
		wv, wok := n.Lookup(7)
		if !ok || !wok || gv != want || wv != want {
			t.Fatalf("shadowing: got %d/%d, want %d", gv, wv, want)
		}
		if !o.Delete(7) || !n.Delete(7) {
			t.Fatal("delete failed")
		}
	}
	if _, ok := o.Lookup(7); ok {
		t.Fatal("list should be empty")
	}
}

func TestSketchEstimatesOverestimate(t *testing.T) {
	// Count-min never underestimates.
	o := loadDS(t, KindCountMin, false)
	truth := map[uint64]uint64{}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		k := uint64(r.Intn(64)) + 1
		o.Update(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		got, ok := o.Lookup(k)
		if !ok || got < want {
			t.Fatalf("count-min underestimates key %d: %d < %d", k, got, want)
		}
	}
}

// TestInstrumentationProfiles pins the qualitative Table-3 shape: sketches
// verify fully statically; the hash map needs a manipulation guard for its
// unbounded bucket index; pointer-chasing structures elide their
// manipulated accesses.
func TestInstrumentationProfiles(t *testing.T) {
	rt := kflex.NewRuntime()
	reports := map[Kind]struct {
		manip, elided, probes int
	}{}
	for _, kind := range Kinds {
		o, err := Load(rt, kind, false)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rep := o.Ext.Report()
		reports[kind] = struct{ manip, elided, probes int }{rep.ManipGuards, rep.ElidedGuards, rep.Probes}
		o.Close()
	}
	if reports[KindHashMap].manip == 0 {
		t.Error("hashmap should need manipulation guards (unbounded bucket index)")
	}
	if reports[KindCountMin].manip != 0 || reports[KindCountMin].probes != 0 {
		t.Errorf("count-min should be fully static: %+v", reports[KindCountMin])
	}
	if reports[KindCountSketch].manip != 0 || reports[KindCountSketch].probes != 0 {
		t.Errorf("count sketch should be fully static: %+v", reports[KindCountSketch])
	}
	if reports[KindCountMin].elided == 0 {
		t.Error("count-min accesses should be elided manipulation candidates")
	}
	if reports[KindSkipList].elided == 0 {
		t.Error("skip list tower accesses should be elided (masked index)")
	}
	if reports[KindLinkedList].probes == 0 || reports[KindRBTree].probes == 0 {
		t.Error("unbounded traversals need cancellation probes")
	}
}

// zaddHarness loads the ZADD extension directly.
type zaddHarness struct {
	o *Offloaded
}

func loadZAdd(t *testing.T) *zaddHarness {
	t.Helper()
	o, err := LoadSpec(kflex.NewRuntime(), KindZAdd, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return &zaddHarness{o: o}
}

func (z *zaddHarness) ZAdd(t *testing.T, member, score uint64) bool {
	res, err := z.o.Op(OpUpdate, member, score)
	if err != nil {
		t.Fatal(err)
	}
	return res.Ret == RetFound
}

func (z *zaddHarness) Score(t *testing.T, member uint64) (uint64, bool) {
	res, err := z.o.Op(OpLookup, member, 0)
	if err != nil {
		t.Fatal(err)
	}
	return z.o.Out(), res.Ret == RetFound
}

func TestZAddEquivalence(t *testing.T) {
	z := loadZAdd(t)
	n := NewNativeZSet()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		member := uint64(r.Intn(300)) + 1
		score := uint64(r.Intn(1 << 16))
		gAdded := z.ZAdd(t, member, score)
		wAdded := n.ZAdd(member, score)
		if gAdded != wAdded {
			t.Fatalf("op %d: ZAdd(%d,%d) added=%v native=%v", i, member, score, gAdded, wAdded)
		}
	}
	for member := uint64(1); member <= 300; member++ {
		gs, gok := z.Score(t, member)
		ws, wok := n.Score(member)
		if gok != wok || gs != ws {
			t.Fatalf("score(%d) = (%d,%v), native (%d,%v)", member, gs, gok, ws, wok)
		}
	}
}

func TestZAddNewVsUpdate(t *testing.T) {
	z := loadZAdd(t)
	if !z.ZAdd(t, 5, 100) {
		t.Fatal("first ZADD should report added")
	}
	if z.ZAdd(t, 5, 100) {
		t.Fatal("same-score ZADD should not report added")
	}
	if z.ZAdd(t, 5, 200) {
		t.Fatal("score update should not report added")
	}
	if s, ok := z.Score(t, 5); !ok || s != 200 {
		t.Fatalf("score = %d,%v", s, ok)
	}
}

// allKinds is every program this package builds.
var allKinds = slices.Concat(Kinds, []Kind{KindZAdd})

// TestProgramConcurrent builds every program from four goroutines at once:
// a build owns all of its state, so each result equals a serial build (and
// the race detector sees nothing shared).
func TestProgramConcurrent(t *testing.T) {
	for _, kind := range allKinds {
		want := Program(kind)
		got := make([][]insn.Instruction, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = Program(kind)
			}()
		}
		wg.Wait()
		for i, prog := range got {
			if !slices.Equal(prog, want) {
				t.Errorf("%s: goroutine %d built a different program", kind, i)
			}
		}
	}
}

// TestProgramSectionsDeterministic: the label table Table 3 reads operation
// ranges from is the same on every build.
func TestProgramSectionsDeterministic(t *testing.T) {
	for _, kind := range allKinds {
		_, first := ProgramSections(kind)
		_, second := ProgramSections(kind)
		if !maps.Equal(first, second) {
			t.Errorf("%s: two builds returned different label tables (%d and %d labels)", kind, len(first), len(second))
		}
	}
}
