package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

type passKind int

const (
	// passThroughput: no per-op clock, one clock read per slot of a
	// millisecond or so of ops; reply status byte and length checked.
	passThroughput passKind = iota
	// passLatency: a clock pair around every op; the full reply is compared
	// with the oracle after the op's clock has stopped.
	passLatency
	// passTraced: spans instead of clock pairs, full reply check, and the
	// layers' public counters read before and after.
	passTraced
)

// scenario is one closed-loop traffic mix with its deployment and oracle.
// The run shape is the same for all: generate the ops and their expected
// replies from the seed, set the deployment up, run one untimed warm-up
// pass, then rounds of fixed-size passes over the same ops.
type scenario interface {
	// generate builds the request stream and the oracle's expected replies.
	// It never touches the program under test.
	generate(seed int64)
	// setup stands the deployment up to the point where the first op can be
	// served; teardown releases it. setup after teardown starts afresh.
	setup() error
	teardown()
	// ops is the number of operations in one pass.
	ops() int
	// slots is how many stretches of consecutive ops a throughput pass times
	// one by one: a millisecond's worth or a few each (see slotClock).
	slots() int
	// pooled reports that an op is long enough (milliseconds) for a clock
	// pair per op to be free and a pass holds only a few: rounds then run
	// the latency pass only, an op is its own slot, and the 99th percentile
	// pools every round.
	pooled() bool
	// pass runs the ops once. out receives nanoseconds: per op (len ops) in
	// a latency pass, per slot (len slots) in a throughput pass; nil in a
	// traced pass. It returns the pass's wall time and how
	// many ops failed: errored, cancelled, fell back, or disagreed with the
	// oracle.
	pass(kind passKind, out []int64, tr *tracer) (time.Duration, int)
	// layers fills m with per-layer metrics after a traced pass, replaying
	// the ops at lower public entry points for at most budget. e2eNs is the
	// untraced mean op time the layers should sum to.
	layers(budget time.Duration, e2eNs float64, m map[string]float64) error
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Rounds     int                `json:"rounds,omitempty"`
	OpsPerPass int                `json:"ops_per_pass"`
	EndToEnd   map[string]summary `json:"end_to_end,omitempty"`
	PerLayer   map[string]summary `json:"per_layer,omitempty"`
	// SpanSelfNs is the mean self time per span name from the traced pass.
	SpanSelfNs map[string]float64 `json:"span_self_ns,omitempty"`
	spans      []span
}

const (
	// Set-ups per run: at least minSetups, then more while they have taken
	// less than setupBudget together (a lifecycle set-up takes milliseconds,
	// an mc one most of a second), at most maxSetups.
	minSetups   = 3
	maxSetups   = 30
	setupBudget = time.Second
	// minRounds keeps a minimum meaningful if the box is far slower than
	// the one the pass sizes were chosen on.
	minRounds = 5
	// tracePairs (untraced, latency, traced) pass groups per traced run.
	tracePairs = 5
)

func percentile(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// slotClock times the slots of a throughput pass of n ops, every ops to a
// slot (the last one shorter if they do not divide): one clock read at each
// slot boundary and none in between.
type slotClock struct {
	every int
	out   []int64
	mark  time.Time
}

func newSlotClock(every int, out []int64) slotClock {
	return slotClock{every: every, out: out, mark: time.Now()}
}

// done is called after op i of n (counting from 0) has been served.
func (c *slotClock) done(i, n int) {
	if (i+1)%c.every == 0 || i+1 == n {
		now := time.Now()
		c.out[i/c.every] = int64(now.Sub(c.mark))
		c.mark = now
	}
}

func slotsOf(n, every int) int { return (n + every - 1) / every }

// rate is the ops per second of a pass of n ops whose slots took slotNs.
func rate(n int, slotNs []int64) float64 {
	var ns int64
	for _, t := range slotNs {
		ns += t
	}
	return float64(n) / float64(ns) * 1e9
}

// latencySlot is how many consecutive ops of a latency pass share a slot.
func latencySlot(w scenario) int {
	if w.pooled() {
		return 1
	}
	return 500
}

// slotMedians returns the median of every run of every consecutive entries
// of lat, which it reorders within the runs.
func slotMedians(lat []int64, every int) []int64 {
	out := make([]int64, 0, slotsOf(len(lat), every))
	for lo := 0; lo < len(lat); lo += every {
		run := lat[lo:min(lo+every, len(lat))]
		slices.Sort(run)
		out = append(out, percentile(run, 0.50))
	}
	return out
}

// quietSlots returns, per slot, its shortest time over the rounds: how long
// the slot's ops take when the box leaves them alone.
func quietSlots(rounds [][]int64) []int64 {
	out := slices.Clone(rounds[0])
	for _, row := range rounds[1:] {
		for s, t := range row {
			out[s] = min(out[s], t)
		}
	}
	return out
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w scenario, seed int64, seconds float64, res *runResult) error {
	w.generate(seed)
	var setups []float64
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		w.teardown()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	defer w.teardown()

	n := w.ops()
	lat := make([]int64, n)
	_, failed := w.pass(passLatency, lat, nil) // warm-up, untimed
	attempted := n
	runtime.GC()

	var opsPerS, p50, p99 []float64
	var slots, medians [][]int64 // per round: each slot's time, each latency slot's median op
	var pool []int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(slots) < minRounds || time.Now().Before(deadline) {
		row := make([]int64, w.slots())
		if !w.pooled() {
			_, f := w.pass(passThroughput, row, nil)
			failed += f
			attempted += n
		}
		_, f := w.pass(passLatency, lat, nil)
		failed += f
		attempted += n
		if w.pooled() {
			copy(row, lat)
			pool = append(pool, lat...)
		}
		slots = append(slots, row)
		opsPerS = append(opsPerS, rate(n, row))
		medians = append(medians, slotMedians(lat, latencySlot(w)))
		slices.Sort(lat)
		p50 = append(p50, float64(percentile(lat, 0.50))/1e3)
		p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
	}

	res.Rounds, res.OpsPerPass = len(slots), n
	res.Attempted += attempted
	res.Failed += failed
	// Throughput and the median op are quietened slot by slot, not round by
	// round: a disturbance a few milliseconds long spoils a slot, where it
	// would spoil a round. The median, quartiles and n are over the rounds.
	ops, mid := summarize(opsPerS, "ops/s", higher), summarize(p50, "us", lower)
	ops.Value = rate(n, quietSlots(slots))
	var quiet []float64
	for _, ns := range quietSlots(medians) {
		quiet = append(quiet, float64(ns)/1e3)
	}
	mid.Value = median(quiet)
	res.EndToEnd = map[string]summary{
		"ops_per_s": ops,
		"p50_us":    mid,
		"p99_us":    plainMedian(summarize(p99, "us", lower)),
		"setup_s":   summarize(setups, "s", lower),
	}
	if w.pooled() {
		// A round holds too few ops for a 99th percentile: take it over
		// all rounds' samples, with the percentiles either side of it in
		// the quartile columns.
		slices.Sort(pool)
		at := func(q float64) float64 { return float64(percentile(pool, q)) / 1e3 }
		res.EndToEnd["p99_us"] = summary{Value: at(0.99), Unit: "us", Median: at(0.99), Q1: at(0.985), Q3: at(0.995), N: len(pool)}
	}
	return nil
}

// plainMedian makes the median s's value: for the 99th percentile, which
// has no quiet side worth the name.
func plainMedian(s summary) summary {
	s.Value = s.Median
	return s
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runTraced produces the per-layer metrics: untraced reference passes and
// traced passes of the same ops, then the workload's layer replays, which
// get half of the run's seconds.
func runTraced(w scenario, seed int64, seconds float64, res *runResult) error {
	m := map[string]float64{}
	t0 := time.Now()
	w.generate(seed)
	m["bench.gen_s"] = time.Since(t0).Seconds()
	if err := w.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()

	n := w.ops()
	lat, slots := make([]int64, n), make([]int64, w.slots())
	_, failed := w.pass(passLatency, lat, nil)
	runtime.GC()

	// Untraced and traced passes alternate, so drift falls on both alike;
	// medians of each give the reference op time and the tracing overhead.
	// The last traced pass's spans and counter deltas are the ones kept.
	var untraced, traced, allocs []float64
	var pool []int64
	var tr *tracer
	for i := 0; i < tracePairs; i++ {
		m0 := mallocs()
		d, f := w.pass(passThroughput, slots, nil)
		allocs = append(allocs, float64(mallocs()-m0)/float64(n))
		untraced = append(untraced, float64(d.Nanoseconds())/float64(n))
		failed += f

		_, f = w.pass(passLatency, lat, nil)
		pool = append(pool, lat...)
		failed += f

		tr = newTracer(4 * n)
		d, f = w.pass(passTraced, nil, tr)
		traced = append(traced, float64(d.Nanoseconds())/float64(n))
		failed += f
	}
	e2eNs := median(untraced)
	slices.Sort(pool)
	m["bench.p99_us"] = float64(percentile(pool, 0.99)) / 1e3
	m["bench.allocs_per_op"] = median(allocs)
	m["trace.overhead_share"] = (median(traced) - e2eNs) / e2eNs

	if err := w.layers(time.Duration(seconds*float64(time.Second)/2), e2eNs, m); err != nil {
		return fmt.Errorf("layers: %w", err)
	}

	res.OpsPerPass = n
	res.Attempted += (1 + 3*tracePairs) * n
	res.Failed += failed
	res.PerLayer = map[string]summary{}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = summary{Value: m[d.Name], Unit: d.Unit, Median: m[d.Name], Q1: m[d.Name], Q3: m[d.Name], N: 1}
		delete(m, d.Name)
	}
	if len(m) > 0 {
		return fmt.Errorf("metrics %v are not in the per-layer table", m)
	}
	res.SpanSelfNs = tr.selfTimes()
	res.spans = tr.spans
	return nil
}

// level replays ops [lo, hi) of the workload's stream at one entry point and
// returns how many ops it ran (a level may skip ops that are not its kind).
type level func(lo, hi int) int

// timeLevels replays the n ops at every level until budget is spent (at
// least minReps times) and returns each level's median mean-op time in
// nanoseconds. Within a repetition the levels take turns chunk by chunk, the
// first turn rotating, so drift and cache warmth fall on all levels alike
// and the differences between levels stay meaningful. Every level must leave
// the deployment in the state a plain pass over the chunk would.
func timeLevels(budget time.Duration, n, chunk int, levels ...level) []float64 {
	const minReps = 3
	samples := make([][]float64, len(levels))
	deadline := time.Now().Add(budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		spent := make([]time.Duration, len(levels))
		ran := make([]int, len(levels))
		for lo, turn := 0, rep; lo < n; lo, turn = lo+chunk, turn+1 {
			hi := min(lo+chunk, n)
			for k := range levels {
				i := (turn + k) % len(levels)
				t0 := time.Now()
				ran[i] += levels[i](lo, hi)
				spent[i] += time.Since(t0)
			}
		}
		for i := range levels {
			if ran[i] > 0 {
				samples[i] = append(samples[i], float64(spent[i].Nanoseconds())/float64(ran[i]))
			}
		}
	}
	out := make([]float64, len(levels))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

// levelChunk is how many ops a level replays per turn: long enough that a
// level runs with the cache warmth a straight pass would have, short enough
// (tens of milliseconds) that drift cancels.
const levelChunk = 5000
