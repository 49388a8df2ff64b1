package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

const (
	lcKeys      = 1024 // keys in the store when the deployment comes up
	lcDelta     = 16   // keys dirtied before the warm reload, and again before the migration
	lcProbeRuns = 12   // offloaded GETs that close the half-open circuit after the reload
	lcHeapSize  = 4 << 20
)

type kvPair struct{ key, value []byte }

// lifecycle is the operator's workload: one op is one full cycle on a
// small deployment — open the store, cold load with a full resync, quarantine
// and warm reload with an O(delta) resync, live migration to the free slot,
// close, crash, WAL recovery. Every cycle runs the same seeded plan on a
// fresh device, so its counts are exact.
type lifecycle struct {
	n      int
	base   []kvPair
	delta1 []kvPair // acknowledged on the fallback path while quarantined
	delta2 []kvPair // acknowledged on the fallback path just before the migration
	// The oracle: a plain map replay of the plan, snapshotted where the
	// cycle reads back.
	afterDelta1, afterDelta2 map[string][]byte

	up     lcDeployment // what setup stands up, for setup_s
	medObs map[string][]float64
	ext    *kflex.Extension
}

func newLifecycle(scale int) *lifecycle {
	n := 10 / scale
	if n < 2 {
		n = 2
	}
	return &lifecycle{n: n}
}

func (w *lifecycle) generate(seed int64) {
	r := rand.New(rand.NewSource(seed))
	value := func() []byte { return workload.FormatValue(r.Uint64(), memcached.ValueSize) }
	w.base = make([]kvPair, lcKeys)
	for i := range w.base {
		w.base[i] = kvPair{workload.FormatKey(uint64(i+1), memcached.KeySize), value()}
	}
	pick := func() []kvPair {
		out := make([]kvPair, lcDelta)
		for i, k := range r.Perm(lcKeys)[:lcDelta] {
			out[i] = kvPair{w.base[k].key, value()}
		}
		return out
	}
	w.delta1, w.delta2 = pick(), pick()

	model := map[string][]byte{}
	apply := func(kvs []kvPair) map[string][]byte {
		snap := map[string][]byte{}
		for _, kv := range kvs {
			model[string(kv.key)] = kv.value
		}
		for k, v := range model {
			snap[k] = v
		}
		return snap
	}
	apply(w.base)
	w.afterDelta1 = apply(w.delta1)
	w.afterDelta2 = apply(w.delta2)
}

// lcDeployment is the cycle's deployment: a fresh crashable device, the
// WAL-backed store holding the base keys, and the supervised front end with
// one serving cpu, one free slot to migrate into, and a clock the harness
// advances past the backoff.
type lcDeployment struct {
	dir *durable.MemDir
	st  *durable.Store
	dep *memcached.Supervised
	clk *shiftClock
}

// bringUp opens the store, writes the base keys and cold-loads the front
// end, whose first generation resyncs all of them into its heap.
func (w *lifecycle) bringUp(req int, tr *tracer, root int) (d lcDeployment, initCold time.Duration, err error) {
	sp := tr.begin("durable.open", req, root)
	d.dir = durable.NewMemDir(nil)
	d.st, _, err = durable.Open(d.dir, durable.Options{SyncEvery: 1})
	tr.end(sp)
	if err != nil {
		return d, 0, err
	}
	sp = tr.begin("durable.set", req, root)
	for _, kv := range w.base {
		d.st.Set(kv.key, kv.value)
	}
	tr.end(sp)

	sp = tr.begin("supervisor.init_cold", req, root)
	t0 := time.Now()
	d.clk = &shiftClock{}
	cfg := memcached.DefaultConfig(workload.Mix50)
	cfg.Preload = false
	cfg.Durable = d.st
	cfg.Slots = 2
	cfg.HeapSize = lcHeapSize
	d.dep, err = memcached.NewSupervised(cfg, 1, supervisor.Tuning{
		BackoffBase: time.Hour, BackoffMax: time.Hour, ProbeRuns: lcProbeRuns, Now: d.clk.Now})
	tr.end(sp)
	return d, time.Since(t0), err
}

func (w *lifecycle) setup() (err error) { w.up, _, err = w.bringUp(0, nil, -1); return err }
func (w *lifecycle) teardown() {
	if w.up.dep != nil {
		w.up.dep.Close()
		w.up.st.Close()
	}
	w.up = lcDeployment{}
}
func (w *lifecycle) ops() int     { return w.n }
func (w *lifecycle) slots() int   { return w.n }
func (w *lifecycle) pooled() bool { return true }

// lcObs is what one cycle observed, for the per-layer metrics.
type lcObs struct {
	initCold, reloadWarm, migrate, pause, recover time.Duration
	resyncOps, replayed                           uint64
	lost                                          int
	ext                                           *kflex.Extension
}

// readBack GETs every key of kvs through the front end and compares the
// replies with the oracle. During the half-open probe window the replies
// must also have been offloaded.
func readBack(dep *memcached.Supervised, kvs []kvPair, want map[string][]byte) error {
	for _, kv := range kvs {
		reply, _, offloaded := dep.Execute(0, memcached.EncodeGet(kv.key))
		if !offloaded {
			return fmt.Errorf("GET %s fell back", kv.key)
		}
		if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], want[string(kv.key)]) {
			return fmt.Errorf("GET %s: reply %q disagrees with the oracle", kv.key, reply)
		}
	}
	return nil
}

// cycle runs one operator cycle. It returns the cycle's wall time, which
// stops when recovery has reopened the store (the durability check runs
// after it), and an error when any step misbehaved or any acknowledged
// write was lost. With unackedTail the last write before the crash has its
// fsync failed by the device, so it was never acknowledged and may be lost.
func (w *lifecycle) cycle(req int, tr *tracer, unackedTail bool) (time.Duration, lcObs, error) {
	var obs lcObs
	start := time.Now()
	root := tr.begin("cycle", req, -1)
	defer tr.end(root)

	d, initCold, err := w.bringUp(req, tr, root)
	if err != nil {
		return 0, obs, err
	}
	defer func() {
		if d.dep != nil { // an early return: the deployment is still up
			d.dep.Close()
		}
	}()
	obs.initCold = initCold
	sup := d.dep.Supervisor()
	obs.ext = sup.Extension()
	if init := sup.Stats().LastInit; !init.FullResync || init.ResyncOps != lcKeys {
		return 0, obs, fmt.Errorf("cold load resynced %d keys (full=%v), want %d", init.ResyncOps, init.FullResync, lcKeys)
	}

	// Quarantine, dirty a delta on the fallback path, let the backoff
	// expire: the next request performs the warm reload, and lcProbeRuns
	// offloaded GETs close the circuit.
	sp := tr.begin("supervisor.reload_warm", req, root)
	if !sup.Quarantine("benchmark cycle") {
		return 0, obs, fmt.Errorf("quarantine refused in state %v", sup.State())
	}
	for _, kv := range w.delta1 {
		d.dep.FallbackSet(kv.key, kv.value)
	}
	d.clk.advance(2 * time.Hour)
	if err := readBack(d.dep, w.delta1[:lcProbeRuns], w.afterDelta1); err != nil {
		return 0, obs, fmt.Errorf("after warm reload: %w", err)
	}
	tr.end(sp)
	st := sup.Stats()
	if st.WarmReloads != 1 || st.LastInit.ResyncOps != lcDelta || sup.State() != supervisor.Healthy {
		return 0, obs, fmt.Errorf("warm reload: %d warm reloads, %d keys resynced, state %v",
			st.WarmReloads, st.LastInit.ResyncOps, sup.State())
	}
	obs.reloadWarm = st.LastRecovery
	if err := readBack(d.dep, w.delta1[lcProbeRuns:], w.afterDelta1); err != nil {
		return 0, obs, fmt.Errorf("after warm reload: %w", err)
	}

	// Dirty a second delta and move the heap to the free slot, live.
	sp = tr.begin("supervisor.migrate", req, root)
	for _, kv := range w.delta2 {
		d.dep.FallbackSet(kv.key, kv.value)
	}
	t0 := time.Now()
	rep, err := sup.Migrate(0, sup.FreeSlots()[0])
	obs.migrate = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return 0, obs, err
	}
	if rep.ResyncOps != lcDelta {
		return 0, obs, fmt.Errorf("migration resynced %d keys, want %d", rep.ResyncOps, lcDelta)
	}
	obs.pause = rep.Pause
	if err := readBack(d.dep, w.delta2, w.afterDelta2); err != nil {
		return 0, obs, fmt.Errorf("after migration: %w", err)
	}
	obs.resyncOps = sup.Stats().ResyncOps
	d.dep.Close()
	d.dep = nil

	var unacked []byte
	if unackedTail {
		plan := faultinject.NewPlan(1).SetRate(faultinject.StoreSync, 1)
		plan.Enable()
		d.dir.SetFaultPlan(plan)
		unacked = w.base[0].key
		before := d.st.Metrics().SyncErrs
		d.st.Set(unacked, []byte("never acknowledged"))
		if d.st.Metrics().SyncErrs == before {
			return 0, obs, fmt.Errorf("the device acknowledged the write it was told to fail")
		}
		d.dir.SetFaultPlan(nil)
	}

	// The process dies without closing the store (d.st is simply abandoned,
	// as a dead process's memory would be): only synced bytes survive.
	d.dir.Crash()
	sp = tr.begin("durable.recover", req, root)
	t0 = time.Now()
	recovered, info, err := durable.Open(d.dir, durable.Options{SyncEvery: 1})
	obs.recover = time.Since(t0)
	tr.end(sp)
	elapsed := time.Since(start)
	if err != nil {
		return 0, obs, err
	}
	defer recovered.Close()
	obs.replayed = info.Replayed

	for key, want := range w.afterDelta2 {
		got := recovered.Get([]byte(key))
		if key == string(unacked) && bytes.Equal(got, []byte("never acknowledged")) {
			continue // the unacknowledged write happened to survive: allowed
		}
		if !bytes.Equal(got, want) {
			obs.lost++
		}
	}
	if obs.lost > 0 {
		return elapsed, obs, fmt.Errorf("%d acknowledged writes lost across the crash", obs.lost)
	}
	return elapsed, obs, nil
}

func (w *lifecycle) observe(obs lcObs) {
	if w.medObs == nil {
		w.medObs = map[string][]float64{}
	}
	add := func(name string, v float64) { w.medObs[name] = append(w.medObs[name], v) }
	add("supervisor.init_cold_us", us(obs.initCold))
	add("supervisor.reload_warm_us", us(obs.reloadWarm))
	add("supervisor.migrate_us", us(obs.migrate))
	add("supervisor.migrate_pause_us", us(obs.pause))
	add("durable.recover_us", us(obs.recover))
	add("supervisor.resync_ops_per_cycle", float64(obs.resyncOps))
	add("durable.replayed_records", float64(obs.replayed))
	add("durable.lost_acked_writes", float64(obs.lost))
	w.ext = obs.ext
}

func (w *lifecycle) pass(kind passKind, out []int64, tr *tracer) (time.Duration, int) {
	failed := 0
	start := time.Now()
	for i := 0; i < w.n; i++ {
		d, obs, err := w.cycle(i, tr, false)
		if err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "lifecycle: cycle failed:", err)
		}
		if out != nil {
			out[i] = int64(d)
		}
		if kind == passTraced {
			w.observe(obs)
		}
	}
	return time.Since(start), failed
}

func (w *lifecycle) layers(budget time.Duration, e2eNs float64, m map[string]float64) error {
	var cycles []int64
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		d, obs, err := w.cycle(0, nil, false)
		if err != nil {
			return err
		}
		w.observe(obs)
		cycles = append(cycles, int64(d))
	}
	// The traced run's few passes hold too few cycles for a 99th
	// percentile; these hundreds do.
	slices.Sort(cycles)
	m["bench.p99_us"] = float64(percentile(cycles, 0.99)) / 1e3
	for name, samples := range w.medObs {
		m[name] = median(samples)
	}
	// The steps the harness can time from outside, over the whole cycle.
	m["trace.coverage"] = 1e3 * (m["supervisor.init_cold_us"] + m["supervisor.reload_warm_us"] +
		m["supervisor.migrate_us"] + m["durable.recover_us"]) / e2eNs
	pipelineCounts(m, w.ext)
	if err := microVM(m); err != nil {
		return err
	}
	return kvprogLoad(m)
}
