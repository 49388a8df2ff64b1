package main

import (
	"bytes"
	"encoding/binary"
	"sync"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// parClients is mc-par's client count: the reference box's core count, and
// never more than it.
const parClients = 2

// parSlotOps ops of each client, about 6 us each while both run, make a slot
// of a throughput pass.
const parSlotOps = 1000

// parClient is one closed-loop client of mc-par. Supervised.Execute shares
// its packet, ctx and reply buffers, so it is single-driver; each client
// instead owns its buffers and composes the front end's offloaded path from
// public functions: Supervisor.Run, then for a SET ParseRequest and the
// write-through Store.Set.
type parClient struct {
	cpu    int
	stream *mcStream
	pkt    netsim.Packet
	ctx    []byte
	warmed bool
	exp    [][]byte // the oracle's replies for the pass under way

	stats     kflex.Stats
	cancelled int
	modelNs   float64
}

// serve runs one frame; ok is false when the extension did not serve it.
func (c *parClient) serve(dep *memcached.Supervised, frame []byte, tr *tracer, root int) (reply []byte, ok bool) {
	c.pkt.Data, c.pkt.Reply = frame, c.pkt.Reply[:0]
	binary.LittleEndian.PutUint32(c.ctx, uint32(len(frame)))
	sp := tr.begin("supervisor.run", root, root)
	res, err := dep.Supervisor().Run(c.cpu, &c.pkt, c.ctx)
	tr.end(sp)
	if err != nil || res.Ret != kernel.XDPTx {
		return nil, false
	}
	if tr != nil {
		c.stats.Add(res.Stats)
		c.modelNs += netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls)
		if res.Cancelled != kflex.CancelNone {
			c.cancelled++
		}
	}
	sp = tr.begin("apps.parse", root, root)
	_, key, value := memcached.ParseRequest(frame)
	tr.end(sp)
	if value != nil {
		sp = tr.begin("durable.set", root, root)
		dep.Store().Set(key, value)
		tr.end(sp)
	}
	return c.pkt.Reply, true
}

// begin picks the expectations for the pass about to run.
func (c *parClient) begin() {
	c.exp = c.stream.steady
	if !c.warmed {
		c.warmed, c.exp = true, c.stream.first
	}
}

// run is ops [lo, hi) of one client's share of a pass. lat is the client's
// own slice.
func (c *parClient) run(dep *memcached.Supervised, kind passKind, lo, hi int, lat []int64, tr *tracer) (failed int) {
	exp := c.exp
	for i := lo; i < hi; i++ {
		frame := c.stream.frames[i]
		switch kind {
		case passThroughput:
			reply, ok := c.serve(dep, frame, nil, -1)
			if !ok || len(reply) != len(exp[i]) || reply[0] != exp[i][0] {
				failed++
			}
		case passLatency:
			t0 := time.Now()
			reply, ok := c.serve(dep, frame, nil, -1)
			lat[i] = int64(time.Since(t0))
			if !ok || !bytes.Equal(reply, exp[i]) {
				failed++
			}
		case passTraced:
			root := tr.begin("request", len(tr.spans), -1)
			reply, ok := c.serve(dep, frame, tr, root)
			if !ok || !bytes.Equal(reply, exp[i]) {
				failed++
			}
			tr.end(root)
		}
	}
	return failed
}

// together starts one goroutine per body, releases them at once, and
// returns the wall time until the last has finished.
func together(bodies ...func()) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			body()
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t0)
}

// mcPar is the paper's 90:10 mix from two clients on cpus 0 and 1 sharing
// one supervised+durable deployment. Each client draws its own Zipf stream
// over its own half of the key space, so replies stay checkable against a
// per-client oracle whatever the interleaving.
type mcPar struct {
	perClient int
	clients   [parClients]parClient
	mcDeployment

	before, after counters
}

func newMCPar(scale int) *mcPar { return &mcPar{perClient: 20_000 / scale} }

func (w *mcPar) generate(seed int64) {
	const half = workload.KeySpace / parClients
	for i := range w.clients {
		w.clients[i] = parClient{
			cpu:    i,
			stream: genMCStream(seed+int64(i)*1_000_003, 90, w.perClient, uint64(i)*half, half),
			ctx:    make([]byte, kernel.HookXDP.CtxSize),
		}
	}
}

func (w *mcPar) setup() error {
	for i := range w.clients {
		w.clients[i].warmed = false
	}
	return w.open(parClients)
}
func (w *mcPar) teardown()    { w.close() }
func (w *mcPar) ops() int     { return parClients * w.perClient }
func (w *mcPar) pooled() bool { return false }

// A slot is both clients serving their next parSlotOps ops side by side, from
// their release to the return of the slower: the clients meet again at every
// slot boundary. A client's stretch timed on its own would run fastest while
// the other client is held up and the locks are free, and the quiet side of
// such slots would leave out the contention this workload is here to measure.
func (w *mcPar) slots() int { return slotsOf(w.perClient, parSlotOps) }

func (w *mcPar) pass(kind passKind, out []int64, tr *tracer) (time.Duration, int) {
	var fails [parClients]int
	for i := range w.clients {
		w.clients[i].begin()
	}
	if kind == passThroughput {
		start := time.Now()
		bodies := make([]func(), parClients)
		for lo := 0; lo < w.perClient; lo += parSlotOps {
			hi := min(lo+parSlotOps, w.perClient)
			for i := range w.clients {
				bodies[i] = func() { fails[i] += w.clients[i].run(w.dep, kind, lo, hi, nil, nil) }
			}
			out[lo/parSlotOps] = int64(together(bodies...))
		}
		return time.Since(start), fails[0] + fails[1]
	}

	var tracers [parClients]*tracer
	bodies := make([]func(), parClients)
	for i := range w.clients {
		c := &w.clients[i]
		var clat []int64
		if kind == passLatency {
			clat = out[i*w.perClient : (i+1)*w.perClient]
		}
		if tr != nil {
			// One tracer per goroutine, on the shared time base; merged below.
			tracers[i] = &tracer{t0: tr.t0, spans: make([]span, 0, 4*w.perClient)}
			c.stats, c.cancelled, c.modelNs = kflex.Stats{}, 0, 0
		}
		bodies[i] = func() { fails[i] = c.run(w.dep, kind, 0, w.perClient, clat, tracers[i]) }
	}
	if tr != nil {
		w.before = w.counters()
	}
	elapsed := together(bodies...)
	if tr != nil {
		w.after = w.counters()
		for _, t := range tracers {
			base := len(tr.spans)
			for _, s := range t.spans {
				if s.Parent >= 0 {
					s.Parent += base
				}
				s.Req += base
				tr.spans = append(tr.spans, s)
			}
		}
	}
	failed := 0
	for _, f := range fails {
		failed += f
	}
	return elapsed, failed
}

// layers reports how the composed path scales against the bare extension:
// 2-client throughput over twice 1-client throughput, for the supervised
// deployment and for bare KFlexMC workers fed the same frames.
func (w *mcPar) layers(budget time.Duration, e2eNs float64, m map[string]float64) error {
	n := w.ops()
	ext := w.dep.Supervisor().Extension()
	userBytes := 0
	var stats kflex.Stats
	cancelled, modelNs := 0, 0.0
	for i := range w.clients {
		c := &w.clients[i]
		userBytes += c.stream.userBytes
		stats.Add(c.stats)
		cancelled += c.cancelled
		modelNs += c.modelNs
	}
	countMetrics(m, w.before, w.after, n, userBytes, ext)
	// This workload bypasses Supervised.Execute, so its Offloaded/Fallbacks
	// counters never move; every served op was checked offloaded in pass.
	delete(m, "apps.offloaded_share")
	vmMetrics(m, stats, cancelled, n)
	m["netsim.model_ext_ns_per_op"] = modelNs / float64(n)
	pipelineCounts(m, ext)

	cfg := memcached.DefaultConfig(workload.Mix90)
	bare, err := memcached.NewKFlex(cfg, parClients, false)
	if err != nil {
		return err
	}
	defer bare.Close()
	var workers [parClients]*memcached.Worker
	for i := range workers {
		workers[i] = bare.Worker(i)
	}
	bareRun := func(i int) func() {
		return func() {
			for _, frame := range w.clients[i].stream.frames {
				workers[i].Execute(frame)
			}
		}
	}
	supRun := func(i int) func() {
		return func() {
			w.clients[i].begin()
			w.clients[i].run(w.dep, passThroughput, 0, w.perClient, nil, nil)
		}
	}
	// Whole passes, not chunks: a level here is a set of goroutines.
	whole := func(ops int, bodies ...func()) level {
		return func(lo, hi int) int { together(bodies...); return ops }
	}
	ns := timeLevels(budget, n, n,
		whole(w.perClient, supRun(0)),
		whole(n, supRun(0), supRun(1)),
		whole(w.perClient, bareRun(0)),
		whole(n, bareRun(0), bareRun(1)),
	)
	// ns are mean op times: ops/s ratios are their inverses.
	m["supervisor.par_efficiency"] = ns[0] / ns[1] / parClients
	m["kflex.par_efficiency"] = ns[2] / ns[3] / parClients
	m["kflex.run_ns"] = ns[2]

	if err := microVM(m); err != nil {
		return err
	}
	m["vm.ns_per_insn"] = (ns[2] - m["vm.null_run_ns"]) / m["vm.insns_per_op"]
	return kvprogLoad(m)
}
