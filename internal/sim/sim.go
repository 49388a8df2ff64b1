// Package sim implements the evaluation harness: a discrete-event
// simulation of the paper's RFC 2544 testbed (§5) — a closed-loop load
// generator with a fixed client population driving a multi-threaded server
// over a network with a constant round-trip time. Each request's service
// time is the system under test's modelled cost (internal/netsim): the
// kernel path stages it pays plus its counted work — the extension's
// executed instructions and helper calls, or a user-space handler's
// calibrated constant. The simulator contributes queueing; a run is a pure
// function of its seeds.
//
// Closed-loop semantics: every client keeps exactly one request
// outstanding, reissuing as soon as the response arrives, exactly like the
// paper's 64-thread × 16-client generator.
package sim

import (
	"container/heap"
	"math/rand"

	"kflex/internal/hist"
)

// System is the server-side system under test. Serve is invoked once per
// request on the given server thread ("CPU") at simulated time now (ns)
// and returns the request's service time in nanoseconds.
type System interface {
	Serve(cpu int, now float64) float64
}

// Config parameterizes one run.
type Config struct {
	// Clients is the closed-loop population (the paper uses 64×16 = 1024).
	Clients int
	// Servers is the number of server threads (8 or 16 in §5.1).
	Servers int
	// RTTNs is the client↔server network round trip (a 10 GbE ToR-less
	// direct link: ~30 µs including client-side processing).
	RTTNs float64
	// DurationNs is the simulated run length.
	DurationNs float64
	// WarmupFrac discards the first fraction of samples (the paper
	// discards 10%).
	WarmupFrac float64
	// Seed fixes the random streams.
	Seed int64
}

// DefaultConfig mirrors §5's testbed parameters (durations are scaled down
// from 30 s: the simulation is deterministic, so shorter runs converge).
func DefaultConfig() Config {
	return Config{
		Clients:    1024,
		Servers:    8,
		RTTNs:      30_000,
		DurationNs: 2e9,
		WarmupFrac: 0.1,
		Seed:       1,
	}
}

// Result aggregates a run.
type Result struct {
	Ops        uint64
	Throughput float64 // ops/sec
	Latency    *hist.H // per-request latency (ns), warmup excluded
}

// event kinds
const (
	evArrival = iota
	evDeparture
)

type event struct {
	t      float64
	kind   int
	client int
	cpu    int
	issued float64
}

type eventHeap []event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run executes the closed-loop simulation of sys under cfg.
func Run(cfg Config, sys System) Result {
	if cfg.Clients <= 0 || cfg.Servers <= 0 {
		// Internal invariant: configs are built by this repo's benchmarks,
		// not parsed from external input; a bad one is a programming error.
		panic("sim: bad config")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lat := new(hist.H)
	warmEnd := cfg.DurationNs * cfg.WarmupFrac

	var ev eventHeap
	// Stagger initial arrivals across one RTT to avoid a thundering herd.
	for c := 0; c < cfg.Clients; c++ {
		t := rng.Float64() * cfg.RTTNs
		heap.Push(&ev, event{t: t + cfg.RTTNs/2, kind: evArrival, client: c, issued: t})
	}

	idle := make([]bool, cfg.Servers)
	for i := range idle {
		idle[i] = true
	}
	freeList := make([]int, cfg.Servers)
	for i := range freeList {
		freeList[i] = i
	}
	type pending struct {
		client int
		issued float64
	}
	var queue []pending
	var qHead int
	var ops uint64

	startService := func(now float64, cpu int, p pending) {
		heap.Push(&ev, event{
			t: now + sys.Serve(cpu, now), kind: evDeparture,
			client: p.client, cpu: cpu, issued: p.issued,
		})
	}

	for len(ev) > 0 {
		e := heap.Pop(&ev).(event)
		if e.t > cfg.DurationNs {
			break
		}
		switch e.kind {
		case evArrival:
			p := pending{client: e.client, issued: e.issued}
			if n := len(freeList); n > 0 {
				cpu := freeList[n-1]
				freeList = freeList[:n-1]
				idle[cpu] = false
				startService(e.t, cpu, p)
			} else {
				queue = append(queue, p)
			}
		case evDeparture:
			// Response travels back; latency is end-to-end at the
			// client (§5: all measurements performed at the client).
			respAt := e.t + cfg.RTTNs/2
			if e.issued >= warmEnd {
				lat.Record(int64(respAt - e.issued))
				ops++
			}
			// Closed loop: reissue immediately.
			heap.Push(&ev, event{
				t: respAt + cfg.RTTNs/2, kind: evArrival,
				client: e.client, issued: respAt,
			})
			// Serve the next queued request or go idle.
			if qHead < len(queue) {
				p := queue[qHead]
				qHead++
				if qHead > 1024 && qHead*2 > len(queue) {
					queue = append([]pending(nil), queue[qHead:]...)
					qHead = 0
				}
				startService(e.t, e.cpu, p)
			} else {
				idle[e.cpu] = true
				freeList = append(freeList, e.cpu)
			}
		}
	}

	measured := cfg.DurationNs * (1 - cfg.WarmupFrac)
	return Result{
		Ops:        ops,
		Throughput: float64(ops) / (measured / 1e9),
		Latency:    lat,
	}
}
