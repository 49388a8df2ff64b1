package kflex_test

import (
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/ds"
)

// goldenPrograms are the programs the repository ships: the shared KV
// program under both codecs, the six data-structure offloads, ZADD and the
// paper's Listing 1.
func goldenPrograms(t *testing.T) []kflex.Spec {
	specs := []kflex.Spec{}
	for _, c := range []*offload.Codec{&memcached.Codec, &redis.Codec} {
		specs = append(specs, kflex.Spec{
			Name: "kvprog-" + c.Name, Insns: kvprog.Build(c.Prog), Hook: c.Hook, HeapSize: 1 << 26,
		})
	}
	for _, kind := range slices.Concat(ds.Kinds, []ds.Kind{ds.KindZAdd}) {
		specs = append(specs, kflex.Spec{
			Name: string(kind), Insns: ds.Program(kind), Hook: kflex.HookBench, HeapSize: ds.HeapSize(kind),
		})
	}
	return append(specs, kflex.Spec{Name: "listing1", Insns: listing1(t), Hook: kflex.HookXDP, HeapSize: 1 << 20})
}

// TestPipelineGolden pins what verify → instrument emits for every shipped
// program under each knob Kie reads: the instrumented stream's fingerprint
// and the kie.Report counters, captured at PR 20 (ff0ba6f), before Load was
// split into compile and link and DisableElision moved into Kie. A line
// that differs means the instrumentation changed: if that is intended,
// replace testdata/pipeline_golden.txt with the text the failure prints.
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
	var got strings.Builder
	for _, base := range goldenPrograms(t) {
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
	want, err := os.ReadFile("testdata/pipeline_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("instrumentation differs from testdata/pipeline_golden.txt; got:\n%s", got.String())
	}
}
