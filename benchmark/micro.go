package main

import (
	"fmt"
	"runtime"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/memcached"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// microVM measures the two fixed costs under every invocation: a 2-insn
// program (entry/exit only) and a 16-helper-call program, whose extra time
// over the null program is 16 helper calls.
func microVM(m map[string]float64) error {
	const helperCalls = 16
	const runs = 100_000
	null := asm.New().Ret(0).MustAssemble()
	b := asm.New()
	for i := 0; i < helperCalls; i++ {
		b.Call(kflex.HelperKtimeGetNS)
	}
	helpers := b.Ret(0).MustAssemble()

	rt := kflex.NewRuntime()
	var handles [2]*kflex.Handle
	for i, prog := range [][]insn.Instruction{null, helpers} {
		ext, err := rt.Load(kflex.Spec{
			Name: fmt.Sprintf("micro-%d", i), Insns: prog, Hook: kflex.HookBench,
			Mode: kflex.ModeKFlex, HeapSize: 1 << 20, NumCPUs: 1,
		})
		if err != nil {
			return err
		}
		defer ext.Close()
		handles[i] = ext.Handle(0)
	}
	ctx := make([]byte, kflex.HookBench.CtxSize)
	runAll := func(h *kflex.Handle) level {
		return func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				h.Run(nil, ctx)
			}
			return hi - lo
		}
	}
	ns := timeLevels(0, runs, levelChunk, runAll(handles[0]), runAll(handles[1]))
	m["vm.null_run_ns"] = ns[0]
	m["kernel.helper_call_ns"] = (ns[1] - ns[0]) / helperCalls
	return nil
}

// pipelineCounts reports the static compilation picture of ext's program:
// exact counts that move only when the verifier, Kie or the lowering change.
func pipelineCounts(m map[string]float64, ext *kflex.Extension) {
	m["verifier.states_explored"] = float64(ext.Analysis().StatesExplored)
	rep := ext.Report()
	m["kie.guards_emitted"] = float64(rep.ReadGuards + rep.WriteGuards)
	m["kie.guards_elided"] = float64(rep.ElidedGuards)
	m["kie.probes"] = float64(rep.Probes)
	if lm, ok := ext.LoweredMetrics(); ok {
		m["compile.lowered_insns"] = float64(lm.LoweredInsns)
		m["compile.fused_sites"] = float64(lm.FusedGuardLoad + lm.FusedGuardStore + lm.FusedProbeBranch)
	}
}

// stageMetric maps Pipeline().Stages names to the layer that owns the stage.
var stageMetric = map[string]string{
	"decode":     "insn.decode_us",
	"verify":     "verifier.verify_us",
	"instrument": "kie.instrument_us",
	"lower":      "compile.lower_us",
	"link":       "compile.link_us",
}

// loadSamples collects repeated cold loads: each one's harness-timed wall
// clock and its own per-stage durations.
type loadSamples struct {
	wall     []float64
	stages   map[string][]float64
	coverage []float64 // per load: the stage times' sum over the wall clock
}

func (s *loadSamples) add(wall time.Duration, p kflex.PipelineInfo) {
	if s.stages == nil {
		s.stages = map[string][]float64{}
	}
	s.wall = append(s.wall, us(wall))
	var sum time.Duration
	for _, st := range p.Stages {
		s.stages[st.Name] = append(s.stages[st.Name], us(st.Duration))
		sum += st.Duration
	}
	s.coverage = append(s.coverage, float64(sum)/float64(wall))
}

// report writes the cold-load metrics and how much of the harness's clock
// the five stage times account for.
func (s *loadSamples) report(m map[string]float64) {
	m["kflex.load_cold_us"] = median(s.wall)
	for stage, name := range stageMetric {
		m[name] = median(s.stages[stage])
	}
	m["trace.pipeline_coverage"] = median(s.coverage)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

const loadReps = 5

// kvprogLoad times the Memcached program's load both ways through the only
// public path that reloads it: an empty supervised deployment's first
// generation is a cold load (fresh runtime, full pipeline), and a cold
// reload after a quarantine is a cached one (same spec, fresh heap, re-link
// only). With no keys the resync is the single init frame.
func kvprogLoad(m map[string]float64) error {
	var cold loadSamples
	var cached []float64
	for i := 0; i < loadReps; i++ {
		clk := &shiftClock{}
		cfg := memcached.DefaultConfig(workload.Mix90)
		cfg.Preload = false
		cfg.ColdReload = true
		runtime.GC() // a load must not pay for its predecessor's 64 MiB heap
		t0 := time.Now()
		dep, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{
			BackoffBase: time.Hour, BackoffMax: time.Hour, ProbeRuns: 1, Now: clk.Now})
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		sup := dep.Supervisor()
		cold.add(wall, sup.Extension().Pipeline())

		sup.Quarantine("benchmark: cached load")
		clk.advance(2 * time.Hour)
		dep.Execute(0, memcached.EncodeGet(workload.FormatKey(1, memcached.KeySize)))
		if !sup.Extension().Pipeline().CacheHit {
			dep.Close()
			return fmt.Errorf("reload of an unchanged spec missed the compile cache")
		}
		cached = append(cached, us(sup.Stats().LastRecovery))
		dep.Close()
	}
	cold.report(m)
	m["kflex.load_cached_us"] = median(cached)
	return nil
}

// shiftClock is real time plus an offset the harness advances past the
// supervisor's backoff instead of sleeping; durations measured with it stay
// real elapsed time.
type shiftClock struct{ offset time.Duration }

func (c *shiftClock) Now() time.Time          { return time.Now().Add(c.offset) }
func (c *shiftClock) advance(d time.Duration) { c.offset += d }
