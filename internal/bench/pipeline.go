package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/workload"
)

// The pipeline experiment compares the two execution tiers the staged
// compiler produces — the reference interpreter and the lowered pre-decoded
// form (§4.2's JIT stage) — on the two application offloads, and reports the
// static compilation picture alongside the dynamic counters. Its JSON output
// (BENCH_pipeline.json) is the repository's record that lowering pays.

// PipelineStage is one Load stage in the JSON report.
type PipelineStage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
	Cached     bool   `json:"cached"`
	Out        int    `json:"out"`
}

// PipelineTier is one app × tier measurement.
type PipelineTier struct {
	Tier      string  `json:"tier"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// InsnsPerOp counts retired source-semantics instructions; identical
	// across tiers by the differential-equivalence contract.
	InsnsPerOp float64 `json:"insns_per_op"`
	// DispatchesPerOp counts dispatch-loop iterations. The interpreter
	// dispatches once per instruction, so its value equals InsnsPerOp; the
	// lowered tier retires fused superinstructions in one dispatch.
	DispatchesPerOp  float64 `json:"dispatches_per_op"`
	FusedPerOp       float64 `json:"fused_per_op"`
	GuardsPerOp      float64 `json:"guards_per_op"`
	HelperCallsPerOp float64 `json:"helper_calls_per_op"`
}

// PipelineApp is the per-application section of the report.
type PipelineApp struct {
	App string `json:"app"`
	Mix string `json:"mix"`

	// Static compilation picture.
	GuardsEmitted    int `json:"guards_emitted"`
	GuardsElided     int `json:"guards_elided"`
	SrcInsns         int `json:"src_insns"`
	LoweredInsns     int `json:"lowered_insns"`
	FusedGuardLoad   int `json:"fused_guard_load"`
	FusedGuardStore  int `json:"fused_guard_store"`
	FusedProbeBranch int `json:"fused_probe_branch"`

	Stages []PipelineStage `json:"stages"`
	Tiers  []PipelineTier  `json:"tiers"`

	// LoweredSpeedup is lowered ops/sec over interpreter ops/sec.
	LoweredSpeedup float64 `json:"lowered_speedup"`
	// DispatchReductionPct is how many dispatch-loop iterations fusion
	// removed relative to the interpreter.
	DispatchReductionPct float64 `json:"dispatch_reduction_pct"`
}

// PipelineReport is the full BENCH_pipeline.json document.
type PipelineReport struct {
	Quick bool          `json:"quick"`
	Apps  []PipelineApp `json:"apps"`
}

// offloadCodecs are the two offloaded servers the pipeline and scale
// experiments drive.
var offloadCodecs = []*offload.Codec{&memcached.Codec, &redis.Codec}

// loadOffload builds c's bare deployment for an experiment that renders its
// own frames and drives Execute itself.
func loadOffload(c *offload.Codec, servers int, preload, interpret bool) (*offload.KFlex, error) {
	cfg := offload.Config{Mix: workload.Mix90, ValueSize: kvprog.ValueSize, Preload: preload, Interpret: interpret}
	return offload.NewKFlex(c, cfg, servers, false)
}

// offloadFrames renders reqs in c's wire format.
func offloadFrames(c *offload.Codec, reqs []workload.Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		key := workload.FormatKey(req.Key, kvprog.KeySize)
		if req.Op == workload.OpSet {
			out[i] = c.AppendSet(nil, key, workload.FormatValue(req.Value, kvprog.ValueSize))
		} else {
			out[i] = c.AppendGet(nil, key)
		}
	}
	return out
}

func (o Options) pipelineOps() int {
	if o.Quick {
		return 2_000
	}
	return 20_000
}

func (o Options) pipelinePreload() uint64 {
	if o.Quick {
		return 4 << 10
	}
	return workload.KeySpace
}

// Pipeline measures both tiers on both apps and returns the report.
func Pipeline(o Options) (*PipelineReport, error) {
	ops := o.pipelineOps()
	preN := o.pipelinePreload()
	rep := &PipelineReport{Quick: o.Quick}
	for _, c := range offloadCodecs {
		name := c.Name
		// One deterministic frame stream shared by both tiers.
		frames := offloadFrames(c, workload.NewStream(31, workload.Mix90, ops).Reqs)
		out := PipelineApp{App: name, Mix: workload.Mix90.String()}
		var tiers [2]PipelineTier
		for i, tier := range []string{kflex.TierInterpreter, kflex.TierLowered} {
			// The experiment preloads a bounded key range itself.
			sys, err := loadOffload(c, 1, false, tier == kflex.TierInterpreter)
			if err != nil {
				return nil, fmt.Errorf("pipeline: %s/%s: %w", name, tier, err)
			}
			var frame []byte
			for key := uint64(1); key <= preN; key++ {
				frame = c.AppendSet(frame[:0], workload.FormatKey(key, kvprog.KeySize), workload.FormatValue(key, kvprog.ValueSize))
				if _, _, err := sys.Execute(0, frame); err != nil {
					sys.Close()
					return nil, fmt.Errorf("pipeline: %s/%s: preload: %w", name, tier, err)
				}
			}
			sys.ResetWork()
			t0 := time.Now()
			for _, frame := range frames {
				if _, _, err := sys.Execute(0, frame); err != nil {
					sys.Close()
					return nil, fmt.Errorf("pipeline: %s/%s: %w", name, tier, err)
				}
			}
			wall := time.Since(t0).Seconds()
			w := sys.WorkStats()
			t := PipelineTier{
				Tier:             tier,
				Ops:              ops,
				OpsPerSec:        float64(ops) / wall,
				InsnsPerOp:       float64(w.Insns) / float64(ops),
				DispatchesPerOp:  float64(w.Dispatches) / float64(ops),
				FusedPerOp:       float64(w.Fused) / float64(ops),
				GuardsPerOp:      float64(w.Guards) / float64(ops),
				HelperCallsPerOp: float64(w.HelperCalls) / float64(ops),
			}
			if tier == kflex.TierInterpreter {
				// The interpreter's loop dispatches every instruction.
				t.DispatchesPerOp = t.InsnsPerOp
			}
			tiers[i] = t
			if tier == kflex.TierLowered {
				krep := sys.Ext().Report()
				out.GuardsEmitted = krep.ReadGuards + krep.WriteGuards
				out.GuardsElided = krep.ElidedGuards
				if m, ok := sys.Ext().LoweredMetrics(); ok {
					out.SrcInsns = m.SrcInsns
					out.LoweredInsns = m.LoweredInsns
					out.FusedGuardLoad = m.FusedGuardLoad
					out.FusedGuardStore = m.FusedGuardStore
					out.FusedProbeBranch = m.FusedProbeBranch
				}
				for _, s := range sys.Ext().Pipeline().Stages {
					out.Stages = append(out.Stages, PipelineStage{
						Name: s.Name, DurationNs: s.Duration.Nanoseconds(),
						Cached: s.Cached, Out: s.Out,
					})
				}
			}
			sys.Close()
		}
		out.Tiers = tiers[:]
		if tiers[0].OpsPerSec > 0 {
			out.LoweredSpeedup = tiers[1].OpsPerSec / tiers[0].OpsPerSec
		}
		if tiers[0].DispatchesPerOp > 0 {
			out.DispatchReductionPct = 100 * (1 - tiers[1].DispatchesPerOp/tiers[0].DispatchesPerOp)
		}
		rep.Apps = append(rep.Apps, out)
	}
	return rep, nil
}

// RunPipeline executes the experiment, prints the human-readable summary,
// and writes BENCH_pipeline.json when Options.JSONPath is set.
func RunPipeline(o Options) error {
	rep, err := Pipeline(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.Out, "Pipeline: interpreter vs lowered pre-decoded tier (Mix 90:10)")
	for _, app := range rep.Apps {
		fmt.Fprintf(o.Out, "\n%s: %d src insns -> %d lowered (guard+load %d, guard+store %d, probe+branch %d fused); %d guards emitted, %d elided\n",
			app.App, app.SrcInsns, app.LoweredInsns,
			app.FusedGuardLoad, app.FusedGuardStore, app.FusedProbeBranch,
			app.GuardsEmitted, app.GuardsElided)
		fmt.Fprintf(o.Out, "%-14s %14s %14s %14s %12s %12s\n",
			"tier", "ops/sec", "insns/op", "dispatch/op", "fused/op", "guards/op")
		for _, t := range app.Tiers {
			fmt.Fprintf(o.Out, "%-14s %14.0f %14.1f %14.1f %12.1f %12.1f\n",
				t.Tier, t.OpsPerSec, t.InsnsPerOp, t.DispatchesPerOp, t.FusedPerOp, t.GuardsPerOp)
		}
		fmt.Fprintf(o.Out, "lowered speedup %.2fx, dispatch reduction %.1f%%\n",
			app.LoweredSpeedup, app.DispatchReductionPct)
	}
	if o.JSONPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.JSONPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "\nwrote %s\n", o.JSONPath)
	}
	return nil
}
