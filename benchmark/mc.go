package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/durable"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// mcStream is one client's pre-generated requests with the oracle's
// expected replies. The same ops run every pass, so two expectation sets
// are enough: first for the pass that starts from the preloaded state, and
// steady for every later pass, which starts from the stream's own end state
// (a key's value after a pass is its last SET of the stream either way).
type mcStream struct {
	frames        [][]byte
	first, steady [][]byte
	sets          int
	userBytes     int // key+value bytes of the stream's SETs
}

// genMCStream draws n requests with Zipf(0.99) keys over
// [base+1, base+keys] — the paper's §5.1 parameters: 32 B keys, 64 B values —
// and replays them twice against a plain map to get the expected replies.
func genMCStream(seed int64, getPct int, n int, base, keys uint64) *mcStream {
	r := rand.New(rand.NewSource(seed))
	zipf := workload.NewZipf(r, keys, 0.99, true)
	type req struct {
		key, val uint64 // val 0: GET
	}
	reqs := make([]req, n)
	s := &mcStream{frames: make([][]byte, n)}
	for i := range reqs {
		q := req{key: base + zipf.Next() + 1}
		k := workload.FormatKey(q.key, memcached.KeySize)
		if r.Intn(100) >= getPct {
			q.val = r.Uint64()%1_000_000 + workload.KeySpace + 1 // never a preloaded value
			s.frames[i] = memcached.EncodeSet(k, workload.FormatValue(q.val, memcached.ValueSize))
			s.sets++
			s.userBytes += memcached.KeySize + memcached.ValueSize
		} else {
			s.frames[i] = memcached.EncodeGet(k)
		}
		reqs[i] = q
	}
	// The oracle: a map from key to the seed of its current value. Preload
	// stores FormatValue(key) under every key.
	model := map[uint64]uint64{}
	replay := func() [][]byte {
		out := make([][]byte, n)
		stored := []byte{'S'}
		for i, q := range reqs {
			if q.val != 0 {
				model[q.key] = q.val
				out[i] = stored
				continue
			}
			v, ok := model[q.key]
			if !ok {
				v = q.key
			}
			out[i] = append([]byte{'V'}, workload.FormatValue(v, memcached.ValueSize)...)
		}
		return out
	}
	s.first = replay()
	s.steady = s.first
	if s.sets > 0 {
		s.steady = replay()
	}
	return s
}

// mcDeployment is the deployment an operator would run: the
// lifecycle-supervised front end writing through to the WAL-backed store.
// The device is a MemDir because the sandbox's fsync is noise and because
// MemDir.Crash lets the benchmark discard unflushed bytes itself; the flush
// policy is SyncEvery: 1 (every acknowledged SET is synced) on every run.
type mcDeployment struct {
	dir *durable.MemDir
	st  *durable.Store
	dep *memcached.Supervised
}

func (d *mcDeployment) open(servers int) error {
	d.dir = durable.NewMemDir(nil)
	st, _, err := durable.Open(d.dir, durable.Options{SyncEvery: 1})
	if err != nil {
		return err
	}
	cfg := memcached.DefaultConfig(workload.Mix90) // Mix is unused: the harness generates the frames
	cfg.Durable = st
	dep, err := memcached.NewSupervised(cfg, servers, supervisor.Tuning{})
	if err != nil {
		return err
	}
	d.st, d.dep = st, dep
	return nil
}

func (d *mcDeployment) close() {
	if d.dep != nil {
		d.dep.Close()
		d.st.Close()
	}
	*d = mcDeployment{}
}

// walBytes is the size of every file on the device.
func (d *mcDeployment) walBytes() int64 {
	names, _ := d.dir.List()
	var total int64
	for _, name := range names {
		if f, err := d.dir.Open(name); err == nil {
			sz, _ := f.Size()
			total += sz
		}
	}
	return total
}

// counters is a snapshot of the public counters the layers expose; deltas
// across a traced pass become per-op counts.
type counters struct {
	offloaded, fallbacks uint64
	durable              durable.Metrics
	wal                  int64
	allocs, frees        uint64
	refills              uint64
}

func (d *mcDeployment) counters() counters {
	a := d.dep.Supervisor().Extension().Alloc().Stats()
	return counters{
		offloaded: d.dep.Offloaded, fallbacks: d.dep.Fallbacks,
		durable: d.st.Metrics(), wal: d.walBytes(),
		allocs: a.Allocs, frees: a.Frees, refills: a.Refills,
	}
}

// countMetrics turns a counter delta over n ops into per-layer metrics.
func countMetrics(m map[string]float64, before, after counters, n, userBytes int, ext *kflex.Extension) {
	per := func(a, b uint64) float64 { return float64(a-b) / float64(n) }
	m["durable.appends_per_op"] = per(after.durable.Appends, before.durable.Appends)
	m["durable.syncs_per_op"] = per(after.durable.Syncs, before.durable.Syncs)
	if userBytes > 0 {
		m["durable.wal_bytes_per_user_byte"] = float64(after.wal-before.wal) / float64(userBytes)
	}
	m["alloc.allocs_per_op"] = per(after.allocs, before.allocs)
	m["alloc.frees_per_op"] = per(after.frees, before.frees)
	m["alloc.refills_per_kop"] = 1000 * per(after.refills, before.refills)
	m["heap.populated_pages"] = float64(ext.Heap().PopulatedPages())
	if served := (after.offloaded - before.offloaded) + (after.fallbacks - before.fallbacks); served > 0 {
		m["apps.offloaded_share"] = float64(after.offloaded-before.offloaded) / float64(served)
	}
}

// vmMetrics turns summed Result.Stats over n runs into the vm.* counts.
func vmMetrics(m map[string]float64, st kflex.Stats, cancelled, n int) {
	f := float64(n)
	m["vm.insns_per_op"] = float64(st.Insns) / f
	m["vm.dispatches_per_op"] = float64(st.Dispatches) / f
	m["vm.fused_per_op"] = float64(st.Fused) / f
	m["vm.guards_per_op"] = float64(st.Guards) / f
	m["vm.helper_calls_per_op"] = float64(st.HelperCalls) / f
	m["vm.cancelled_share"] = float64(cancelled) / f
}

// sink keeps the compiler from deleting a replayed call whose result is
// otherwise unused.
var sink int

type mcMode int

const (
	mcRead mcMode = iota
	mcWrite
)

// mc is mc-read and mc-write: one client on cpu 0 driving
// Supervised.Execute.
type mc struct {
	mode   mcMode
	n      int
	stream *mcStream
	mcDeployment
	warmed bool

	// Traced-pass observations for layers.
	before, after counters
	modelExtNs    float64
}

func newMC(mode mcMode, scale int) *mc {
	n := 50_000
	if mode == mcWrite {
		n = 12_500
	}
	return &mc{mode: mode, n: n / scale}
}

func (w *mc) generate(seed int64) {
	getPct := 100
	if w.mode == mcWrite {
		getPct = 10
	}
	w.stream = genMCStream(seed, getPct, w.n, 0, workload.KeySpace)
}

func (w *mc) setup() error { w.warmed = false; return w.open(1) }
func (w *mc) teardown()    { w.close() }
func (w *mc) ops() int     { return w.n }
func (w *mc) slots() int   { return slotsOf(w.n, w.slotOps()) }
func (w *mc) pooled() bool { return false }

// slotOps ops make a slot: a GET takes about 2 us and a SET about 10.
func (w *mc) slotOps() int {
	if w.mode == mcWrite {
		return 100
	}
	return 500
}

// expected returns the oracle's replies for the pass about to run.
func (w *mc) expected() [][]byte {
	if !w.warmed {
		w.warmed = true
		return w.stream.first
	}
	return w.stream.steady
}

func (w *mc) pass(kind passKind, out []int64, tr *tracer) (time.Duration, int) {
	exp := w.expected()
	failed := 0
	start := time.Now()
	switch kind {
	case passThroughput:
		clock := newSlotClock(w.slotOps(), out)
		for i, frame := range w.stream.frames {
			reply, _, offloaded := w.dep.Execute(0, frame)
			if !offloaded || len(reply) != len(exp[i]) || reply[0] != exp[i][0] {
				failed++
			}
			clock.done(i, w.n)
		}
	case passLatency:
		for i, frame := range w.stream.frames {
			t0 := time.Now()
			reply, _, offloaded := w.dep.Execute(0, frame)
			out[i] = int64(time.Since(t0))
			if !offloaded || !bytes.Equal(reply, exp[i]) {
				failed++
			}
		}
	case passTraced:
		w.before = w.counters()
		w.modelExtNs = 0
		start = time.Now()
		for i, frame := range w.stream.frames {
			root := tr.begin("request", i, -1)
			call := tr.begin("apps.execute", i, root)
			reply, extNs, offloaded := w.dep.Execute(0, frame)
			tr.end(call)
			w.modelExtNs += extNs
			if !offloaded || !bytes.Equal(reply, exp[i]) {
				failed++
			}
			tr.end(root)
		}
		elapsed := time.Since(start)
		w.after = w.counters()
		return elapsed, failed
	}
	return time.Since(start), failed
}

// layers attributes an op's time by replaying the same frames at each lower
// public entry point — Supervised.Execute, Supervisor.Run, Handle.Run, the
// null program — and taking a layer's self time as its level minus the level
// below. No switch is added to the program under test.
func (w *mc) layers(budget time.Duration, e2eNs float64, m map[string]float64) error {
	n := w.n
	sup := w.dep.Supervisor()
	ext := sup.Extension()
	countMetrics(m, w.before, w.after, n, w.stream.userBytes, ext)
	m["netsim.model_ext_ns_per_op"] = w.modelExtNs / float64(n)
	pipelineCounts(m, ext)

	frames := w.stream.frames
	pkt := &netsim.Packet{}
	ctx := make([]byte, kernel.HookXDP.CtxSize)
	arm := func(frame []byte) {
		pkt.Data, pkt.Reply = frame, pkt.Reply[:0]
		binary.LittleEndian.PutUint32(ctx, uint32(len(frame)))
	}
	handle := ext.Handle(sup.Route()[0])
	// The vm counts come from the first replay only, the same ops at the
	// same point of every run, so they repeat exactly.
	var stats kflex.Stats
	cancelled, bad, counted := 0, 0, false
	// Parsed once, outside the clock: the SET and GET levels below replay
	// only their own kind.
	keys, values := make([][]byte, n), make([][]byte, n)
	sets := 0
	for i, frame := range frames {
		_, keys[i], values[i] = memcached.ParseRequest(frame)
		if values[i] != nil {
			sets++
		}
	}

	levels := timeLevels(budget, n, levelChunk,
		func(lo, hi int) int { // Supervised.Execute
			for _, frame := range frames[lo:hi] {
				w.dep.Execute(0, frame)
			}
			return hi - lo
		},
		func(lo, hi int) int { // Supervisor.Run
			for _, frame := range frames[lo:hi] {
				arm(frame)
				if res, err := sup.Run(0, pkt, ctx); err != nil || res.Ret != kernel.XDPTx {
					bad++
				}
			}
			return hi - lo
		},
		func(lo, hi int) int { // Handle.Run
			for _, frame := range frames[lo:hi] {
				arm(frame)
				res, err := handle.Run(pkt, ctx)
				if err != nil || res.Ret != kernel.XDPTx {
					bad++
				}
				if !counted {
					stats.Add(res.Stats)
					if res.Cancelled != kflex.CancelNone {
						cancelled++
					}
				}
			}
			counted = counted || hi == n
			return hi - lo
		},
		func(lo, hi int) int { // memcached.ParseRequest
			for _, frame := range frames[lo:hi] {
				_, key, _ := memcached.ParseRequest(frame)
				sink += len(key)
			}
			return hi - lo
		},
		func(lo, hi int) (ran int) { // Store.Set, the write-through
			for i := lo; i < hi; i++ {
				if values[i] != nil {
					w.st.Set(keys[i], values[i])
					ran++
				}
			}
			return ran
		},
		func(lo, hi int) (ran int) { // Store.Get, the fallback's read
			for i := lo; i < hi; i++ {
				if values[i] == nil {
					sink += len(w.st.Get(keys[i]))
					ran++
				}
			}
			return ran
		},
	)
	if bad > 0 {
		return fmt.Errorf("%d replayed runs did not serve their frame", bad)
	}
	execute, supRun, run, parse, set, get := levels[0], levels[1], levels[2], levels[3], levels[4], levels[5]
	setShare := float64(sets) / float64(n)

	vmMetrics(m, stats, cancelled, n)
	m["kflex.run_ns"] = run
	m["supervisor.run_self_ns"] = supRun - run
	m["apps.parse_ns"] = parse
	m["durable.set_ns"] = set
	m["durable.get_ns"] = get
	m["apps.execute_self_ns"] = execute - supRun - setShare*set
	m["durable.op_share"] = setShare * set / execute
	// The four self times above (apps, durable, supervisor, kflex) telescope
	// to the replayed Execute level, so their sum over the end-to-end op time
	// checks that the replays reproduce the end-to-end passes.
	m["trace.coverage"] = execute / e2eNs

	if err := microVM(m); err != nil {
		return err
	}
	m["vm.ns_per_insn"] = (run - m["vm.null_run_ns"]) / m["vm.insns_per_op"]
	return kvprogLoad(m)
}
