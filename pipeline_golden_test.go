package kflex_test

import (
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/listing1"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/ds"
	"kflex/internal/verifier"
)

// goldenPrograms are the programs the repository ships: the shared KV
// program under both codecs and in its co-designed locked form, the six
// data-structure offloads, ZADD and the paper's Listing 1.
func goldenPrograms() []kflex.Spec {
	specs := []kflex.Spec{}
	for _, c := range []*offload.Codec{&memcached.Codec, &redis.Codec} {
		specs = append(specs, kflex.Spec{
			Name: "kvprog-" + c.Name, Insns: kvprog.Build(c.Prog), Hook: c.Hook, HeapSize: 1 << 26,
		})
	}
	locked := memcached.Codec.Prog
	locked.WithLock = true
	specs = append(specs, kflex.Spec{
		Name: "kvprog-memcached-locked", Insns: kvprog.Build(locked), Hook: memcached.Codec.Hook, HeapSize: 1 << 26,
	})
	for _, kind := range slices.Concat(ds.Kinds, []ds.Kind{ds.KindZAdd}) {
		specs = append(specs, kflex.Spec{
			Name: string(kind), Insns: ds.Program(kind), Hook: kflex.HookBench, HeapSize: ds.HeapSize(kind),
		})
	}
	return append(specs, kflex.Spec{Name: "listing1", Insns: listing1.Program(), Hook: kflex.HookXDP, HeapSize: 1 << 20})
}

// analysisDigest hashes everything the verifier concluded about one program:
// every AccessFact, the unbounded edges, LoopsBounded and the object tables,
// with rows sorted by site and locations by name so that the digest does not
// depend on the order the walk met them. StatesExplored is not in it: it
// measures the walk, not what the walk concluded, and pipeline_golden.txt
// prints it as states=.
func analysisDigest(an *verifier.Analysis) (rows int, digest uint64) {
	h := fnv.New64a()
	for i, f := range an.Facts {
		fmt.Fprintf(h, "%d %v\n", i, f)
	}
	fmt.Fprintf(h, "edges %v bounded %v\n", an.UnboundedEdges, an.LoopsBounded)
	for _, cp := range slices.Sorted(maps.Keys(an.ObjTables)) {
		table := slices.Clone(an.ObjTables[cp])
		slices.SortFunc(table, func(a, b verifier.ObjTableEntry) int { return a.Site - b.Site })
		fmt.Fprintf(h, "cp %d", cp)
		for _, row := range table {
			locs := make([]string, len(row.Locs))
			for i, l := range row.Locs {
				locs[i] = l.String()
			}
			slices.Sort(locs)
			fmt.Fprintf(h, " [%d %s %s %v %v]", row.Site, row.Kind, row.Destructor, locs, row.Conflict)
		}
		fmt.Fprintln(h)
		rows += len(table)
	}
	return rows, h.Sum64()
}

// TestPipelineGolden pins what verify → instrument emits for every shipped
// program under each knob Kie reads. testdata/pipeline_golden.txt holds the
// instrumented stream's fingerprint, the kie.Report counters and the
// verifier's step count (states=), captured at ff0ba6f, before Load was split
// into compile and link and DisableElision moved into Kie; only states= has
// changed since, when the verifier's two walks became one.
// testdata/analysis_golden.txt holds a digest of what the verifier concluded,
// recaptured without the step count at 3546a38, while a program with an
// unbounded loop was still walked twice; the one walk concludes the same.
// The kvprog-memcached-locked rows of both files were added at dd450ce.
// A line that differs means the
// verifier or the instrumentation changed: if that is intended, replace the
// file with the text the failure prints.
func TestPipelineGolden(t *testing.T) {
	variants := []struct {
		name string
		set  func(*kflex.Spec)
	}{
		{"default", func(*kflex.Spec) {}},
		{"noelision", func(s *kflex.Spec) { s.DisableElision = true }},
		{"perfmode", func(s *kflex.Spec) { s.PerfMode = true }},
		{"shareheap", func(s *kflex.Spec) { s.ShareHeap = true }},
	}
	var got, gotAnalysis strings.Builder
	for _, base := range goldenPrograms() {
		rt := kflex.NewRuntime()
		memcached.Codec.RegisterHelpers(rt)
		redis.Codec.RegisterHelpers(rt)
		var defaultFacts any
		for _, v := range variants {
			spec := base
			spec.Mode = kflex.ModeKFlex
			v.set(&spec)
			ext, err := rt.Load(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.Name, v.name, err)
			}
			r := ext.Report()
			fmt.Fprintf(&got, "%s/%s fp=%016x len=%d manip=%d elided=%d formation=%d static=%d rd=%d wr=%d probes=%d xlat=%d cps=%d states=%d\n",
				base.Name, v.name, insn.Fingerprint(r.Prog), len(r.Prog),
				r.ManipGuards, r.ElidedGuards, r.FormationGuards, r.StaticSafe,
				r.ReadGuards, r.WriteGuards, r.Probes, r.XlatStores, len(r.CPs),
				ext.Analysis().StatesExplored)
			an := ext.Analysis()
			rows, digest := analysisDigest(an)
			fmt.Fprintf(&gotAnalysis, "%s/%s facts=%d edges=%d bounded=%v tables=%d rows=%d analysis=%016x\n",
				base.Name, v.name, len(an.Facts), len(an.UnboundedEdges), an.LoopsBounded, len(an.ObjTables), rows, digest)
			switch v.name {
			case "default":
				defaultFacts = ext.Analysis().Facts
			case "noelision":
				// The ablation is Kie's decision: the verifier's verdicts are
				// the ones it reached, not rewritten to match.
				if !reflect.DeepEqual(ext.Analysis().Facts, defaultFacts) {
					t.Errorf("%s: DisableElision changed the verifier's Facts", base.Name)
				}
			}
			ext.Close()
		}
	}
	for _, g := range []struct{ file, got string }{
		{"testdata/pipeline_golden.txt", got.String()},
		{"testdata/analysis_golden.txt", gotAnalysis.String()},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("output differs from %s; got:\n%s", g.file, g.got)
		}
	}
}
