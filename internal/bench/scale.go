package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"kflex"
	"kflex/internal/apps/offload"
	"kflex/internal/hist"
	"kflex/internal/workload"
)

// The scale experiment measures multi-core serving (§3.3–§3.4): one
// goroutine per simulated CPU drives its own per-CPU execution context
// through the lowered tier, with zero shared locks on the per-op path.
// Clients are closed-loop with a fixed think time — the memtier/YCSB model,
// where each client waits a network round trip between requests — so
// throughput scales with worker count by latency hiding even on a
// single-core host (GOMAXPROCS is recorded in the report): while one
// worker's client "thinks", other workers serve. What the experiment
// certifies is the absence of software serialization: identical per-op
// instruction counts at every worker count, and aggregate throughput
// scaling near-linearly to 8 workers.
//
// Determinism across worker counts is by construction. Every key is
// preloaded, so measured SETs overwrite in place and never allocate or
// reshape a bucket chain: the hash table is frozen for the whole
// measurement, making each frame's instruction count a pure function of
// the frame. One shared frame stream is partitioned stride-wise, so the
// union of frames served is identical at every worker count.

// scaleThinkNs is the simulated client round-trip (closed-loop think time)
// between requests of one worker.
const scaleThinkNs = 200_000

// scaleWorkerCounts is the scaling curve's x-axis.
var scaleWorkerCounts = []int{1, 2, 4, 8}

// scaleServers is the number of simulated CPUs the extension is loaded
// with; the largest worker count drives all of them.
const scaleServers = 8

// ScaleLevel is one worker-count measurement.
type ScaleLevel struct {
	Workers int `json:"workers"`
	Ops     int `json:"ops"`
	// OpsPerSec is aggregate closed-loop throughput (wall clock includes
	// think time; service is measured separately below).
	OpsPerSec float64 `json:"ops_per_sec"`
	// Speedup is OpsPerSec over the 1-worker level.
	Speedup float64 `json:"speedup"`
	// InsnsPerOp must be identical across levels (the determinism
	// contract above); any drift means the workers shared mutable state.
	InsnsPerOp float64 `json:"insns_per_op"`
	// Service latency (extension execution only, think time excluded).
	P50ServiceNs  int64   `json:"p50_service_ns"`
	P99ServiceNs  int64   `json:"p99_service_ns"`
	MeanServiceNs float64 `json:"mean_service_ns"`
}

// ScaleApp is the per-application section of the report.
type ScaleApp struct {
	App    string       `json:"app"`
	Mix    string       `json:"mix"`
	Tier   string       `json:"tier"`
	Levels []ScaleLevel `json:"levels"`
	// InsnsStable records whether InsnsPerOp was bit-identical across all
	// levels.
	InsnsStable bool `json:"insns_stable"`
}

// ScaleReport is the full BENCH_scale.json document.
type ScaleReport struct {
	Quick      bool       `json:"quick"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	ThinkNs    int64      `json:"think_ns"`
	Note       string     `json:"note"`
	Apps       []ScaleApp `json:"apps"`
}

func (o Options) scaleOps() int {
	if o.Quick {
		return 2_000
	}
	return 20_000
}

// Scale runs the scalability experiment and returns the report.
func Scale(o Options) (*ScaleReport, error) {
	ops := o.scaleOps()
	rep := &ScaleReport{
		Quick:      o.Quick,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ThinkNs:    scaleThinkNs,
		Note: "closed-loop clients with fixed think time (simulated network RTT); " +
			"throughput scales by latency hiding, service latency excludes think",
	}
	for _, c := range offloadCodecs {
		name := c.Name
		// One deterministic frame stream shared by every level.
		frames := offloadFrames(c, workload.NewStream(31, workload.Mix90, ops).Reqs)
		// scaleServers CPUs, every key preloaded.
		sys, err := loadOffload(c, scaleServers, true, false)
		if err != nil {
			return nil, fmt.Errorf("scale: %s: %w", name, err)
		}
		out := ScaleApp{App: name, Mix: workload.Mix90.String(), Tier: kflex.TierLowered}
		for _, workers := range scaleWorkerCounts {
			lvl, err := scaleLevel(sys, frames, workers)
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("scale: %s/%dw: %w", name, workers, err)
			}
			out.Levels = append(out.Levels, lvl)
		}
		sys.Close()
		base := out.Levels[0]
		out.InsnsStable = true
		for i := range out.Levels {
			if base.OpsPerSec > 0 {
				out.Levels[i].Speedup = out.Levels[i].OpsPerSec / base.OpsPerSec
			}
			if out.Levels[i].InsnsPerOp != base.InsnsPerOp {
				out.InsnsStable = false
			}
		}
		rep.Apps = append(rep.Apps, out)
	}
	return rep, nil
}

// scaleLevel runs one worker count: `workers` goroutines, each bound to its
// own simulated CPU via a private executor, serving its strided share of
// the frame stream with closed-loop think time between requests.
func scaleLevel(sys *offload.KFlex, frames [][]byte, workers int) (ScaleLevel, error) {
	type lane struct {
		w      *offload.Worker
		frames [][]byte
		h      *hist.H
		err    error
	}
	lanes := make([]lane, workers)
	for i := range lanes {
		lanes[i].w = sys.Worker(i)
		lanes[i].h = hist.New()
		for j := i; j < len(frames); j += workers {
			lanes[i].frames = append(lanes[i].frames, frames[j])
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for _, frame := range l.frames {
				s0 := time.Now()
				if _, _, err := l.w.Execute(frame); err != nil {
					l.err = err
					return
				}
				l.h.Record(time.Since(s0).Nanoseconds())
				time.Sleep(scaleThinkNs * time.Nanosecond)
			}
		}(&lanes[i])
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	svc := hist.New()
	var work kflex.Stats
	for i := range lanes {
		if lanes[i].err != nil {
			return ScaleLevel{}, lanes[i].err
		}
		svc.Merge(lanes[i].h)
		work.Add(lanes[i].w.WorkStats())
	}
	return ScaleLevel{
		Workers:       workers,
		Ops:           len(frames),
		OpsPerSec:     float64(len(frames)) / wall,
		InsnsPerOp:    float64(work.Insns) / float64(len(frames)),
		P50ServiceNs:  svc.Quantile(0.5),
		P99ServiceNs:  svc.Quantile(0.99),
		MeanServiceNs: svc.Mean(),
	}, nil
}

// RunScale executes the experiment, prints the human-readable summary, and
// writes BENCH_scale.json when Options.JSONPath is set.
func RunScale(o Options) error {
	rep, err := Scale(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "Scale: parallel closed-loop serving, lowered tier (Mix 90:10), think %dµs, GOMAXPROCS=%d\n",
		rep.ThinkNs/1000, rep.GOMAXPROCS)
	for _, app := range rep.Apps {
		fmt.Fprintf(o.Out, "\n%s:\n", app.App)
		fmt.Fprintf(o.Out, "%8s %12s %9s %12s %14s %14s\n",
			"workers", "ops/sec", "speedup", "insns/op", "p50 svc (µs)", "p99 svc (µs)")
		for _, l := range app.Levels {
			fmt.Fprintf(o.Out, "%8d %12.0f %8.2fx %12.1f %14.1f %14.1f\n",
				l.Workers, l.OpsPerSec, l.Speedup, l.InsnsPerOp,
				float64(l.P50ServiceNs)/1e3, float64(l.P99ServiceNs)/1e3)
		}
		if !app.InsnsStable {
			fmt.Fprintf(o.Out, "WARNING: insns/op drifted across worker counts — shared state on the hot path\n")
		}
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
