// Durable-store chaos: the supervised Memcached deployment runs with the
// WAL-backed store as its authoritative store while the storage device
// injects deterministic faults (short writes, failed fsyncs, torn tails).
// The suite crashes the device, reopens it, and checks crash consistency
// — the recovered store is exactly a prefix of the acknowledged write
// history, and a fresh deployment on it serves that prefix — plus the
// O(delta) warm-resync contract and determinism of the whole recovery
// under a fixed seed.
package kflex_test

import (
	"bytes"
	"testing"
	"time"

	"kflex/internal/apps/memcached"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// durableOracle records every acknowledged mutation in order, so a
// recovered store can be checked against the exact prefix its sequence
// number claims to hold.
type durableOracle struct {
	keys, values [][]byte
}

func (o *durableOracle) set(key, value []byte) {
	o.keys = append(o.keys, append([]byte(nil), key...))
	o.values = append(o.values, append([]byte(nil), value...))
}

// checkPrefix asserts that st holds exactly the first st.Seq() mutations.
func (o *durableOracle) checkPrefix(t *testing.T, st *durable.Store) {
	t.Helper()
	n := st.Seq()
	if n > uint64(len(o.keys)) {
		t.Fatalf("recovered seq %d beyond oracle history %d", n, len(o.keys))
	}
	want := make(map[string][]byte)
	for i := uint64(0); i < n; i++ {
		want[string(o.keys[i])] = o.values[i]
	}
	if st.Len() != len(want) {
		t.Fatalf("recovered %d keys, oracle prefix has %d", st.Len(), len(want))
	}
	for k, v := range want {
		if got := st.Get([]byte(k)); !bytes.Equal(got, v) {
			t.Fatalf("recovered %q = %q, oracle prefix says %q", k, got, v)
		}
	}
}

type durableRun struct {
	hash uint64
	seq  uint64
	// recoveredSeq is the store's sequence right after recovery, before
	// the second deployment writes to it.
	recoveredSeq uint64
	info         durable.RecoveryInfo
	stats        supervisor.Stats
	offloaded    uint64
	fallbacks    uint64
	// The same counters for the deployment stood up on the recovered
	// store.
	stats2                 supervisor.Stats
	offloaded2, fallbacks2 uint64
}

// runDurableScenario drives the supervised deployment over an adversarial
// device through a full degrade/quarantine/reload cycle, then crashes the
// device and reopens it, checks the oracle-prefix invariant, and serves
// the recovered store from a new deployment.
func runDurableScenario(t *testing.T, seed int64) durableRun {
	t.Helper()
	storePlan := faultinject.NewPlan(seed).
		SetRate(faultinject.StoreShort, 0.03).
		SetRate(faultinject.StoreSync, 0.05)
	dir := durable.NewMemDir(storePlan)
	st, info0, err := durable.Open(dir, durable.Options{SyncEvery: 2, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if info0.Replayed != 0 || info0.Keys != 0 {
		t.Fatalf("fresh device recovered state: %+v", info0)
	}

	extPlan := faultinject.NewPlan(seed+1).SetRate(faultinject.HelperErr, 1.0)
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Seed = seed
	cfg.Preload = false
	cfg.FaultPlan = extPlan
	cfg.CancelThreshold = 3
	cfg.Durable = st
	clk := &fakeClock{now: time.Unix(0, 0)}
	mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{
		BackoffBase:         time.Millisecond,
		BackoffMax:          8 * time.Millisecond,
		ProbeRuns:           4,
		MaxConcurrentProbes: 1,
		JitterSeed:          seed + 2,
		Now:                 clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	sup := mc.Supervisor()

	oracle := &durableOracle{}
	keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
	valOf := func(i, ver int) []byte {
		return workload.FormatValue(uint64(i+1)*1000+uint64(ver), cfg.ValueSize)
	}
	set := func(i, ver int) {
		reply, _, _ := mc.Execute(0, memcached.EncodeSet(keyOf(i), valOf(i, ver)))
		if len(reply) != 1 || reply[0] != 'S' {
			t.Fatalf("SET %d: reply %q", i, reply)
		}
		oracle.set(keyOf(i), valOf(i, ver))
	}
	get := func(i, ver int) bool {
		reply, _, offloaded := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
		if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], valOf(i, ver)) {
			t.Fatalf("GET %d: reply %q", i, reply)
		}
		return offloaded
	}

	const keys = 16
	// Phase A — Healthy with storage faults armed: every acknowledged SET
	// is written through to the durable store, which absorbs short writes
	// and failed fsyncs (re-basing via snapshot when the log breaks).
	storePlan.Enable()
	for i := 0; i < keys; i++ {
		set(i, 0)
		get(i, 0)
	}

	// Phase B — extension fault burst: degrade to quarantine. Fallback
	// SETs land only in the durable store (still under storage faults).
	extPlan.Enable()
	for i := 0; sup.State() != supervisor.Quarantined; i++ {
		if i >= 16 {
			t.Fatalf("no quarantine after %d faulted requests", i)
		}
		get(i%keys, 0)
	}
	extPlan.Disarm()
	for i := 0; i < keys/2; i++ {
		set(i, 1) // acknowledged on the fallback path: dirty keys
	}

	// Phase C — recovery: reload (warm when the audit was clean), resync
	// the delta, circuit closes. Updated values must be served.
	clk.Advance(10 * time.Millisecond)
	for i := 0; i < 64; i++ {
		k := i % keys
		ver := 0
		if k < keys/2 {
			ver = 1
		}
		get(k, ver)
	}
	if s := sup.State(); s != supervisor.Healthy {
		t.Fatalf("after recovery: state %v, want healthy", s)
	}
	storePlan.Disarm()

	// Crash the device: everything unsynced is gone. Reopen and check the
	// recovered store is exactly a prefix of the acknowledged history.
	liveSeq := st.Seq()
	dir.Crash()
	st.Close()
	re, info, err := durable.Open(dir, durable.Options{SyncEvery: 2, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer re.Close()
	recoveredSeq := re.Seq()
	oracle.checkPrefix(t, re)
	if re.Seq() == 0 {
		t.Fatal("crash recovery lost the entire history")
	}
	// The live (pre-crash) store held the full history.
	if liveSeq != uint64(len(oracle.keys)) {
		t.Fatalf("live store seq %d, acknowledged %d mutations", liveSeq, len(oracle.keys))
	}

	// Stand a fresh supervised deployment up on the recovered store: it
	// serves the recovered prefix and takes new writes durably.
	cfg2 := cfg
	cfg2.FaultPlan = nil
	cfg2.Durable = re
	mc2, err := memcached.NewSupervised(cfg2, 1, supervisor.Tuning{JitterSeed: seed + 3, Now: clk.Now})
	if err != nil {
		t.Fatalf("deployment on the recovered store: %v", err)
	}
	defer mc2.Close()
	for i := 0; i < keys; i++ {
		want := re.Get(keyOf(i))
		if want == nil {
			continue // the key's SETs were past the recovered prefix
		}
		reply, _, _ := mc2.Execute(0, memcached.EncodeGet(keyOf(i)))
		if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], want) {
			t.Fatalf("recovered GET %d: %q, want V%q", i, reply, want)
		}
	}
	for i := 0; i < keys; i++ {
		reply, _, _ := mc2.Execute(0, memcached.EncodeSet(keyOf(i), valOf(i, 2)))
		if len(reply) != 1 || reply[0] != 'S' {
			t.Fatalf("SET %d on the recovered store: %q", i, reply)
		}
	}

	return durableRun{
		hash:         re.Hash(),
		seq:          re.Seq(),
		recoveredSeq: recoveredSeq,
		info:         info,
		stats:        sup.Stats(),
		offloaded:    mc.Offloaded,
		fallbacks:    mc.Fallbacks,
		stats2:       mc2.Supervisor().Stats(),
		offloaded2:   mc2.Offloaded,
		fallbacks2:   mc2.Fallbacks,
	}
}

func TestChaosDurableSupervisedCrashRecovery(t *testing.T) {
	run := runDurableScenario(t, 808)
	if run.stats.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", run.stats.Reloads)
	}
	// The deployment on the recovered store loaded it whole, cold, and
	// served every request on the extension.
	if init := run.stats2.LastInit; !init.FullResync || init.ResyncOps != run.info.Keys || run.fallbacks2 != 0 {
		t.Fatalf("recovered deployment: init %+v over %d keys, %d fallbacks", init, run.info.Keys, run.fallbacks2)
	}
}

// TestChaosDurableDeterminism re-runs the same seed and requires the
// recovered store, recovery info, and lifecycle stats to be identical.
func TestChaosDurableDeterminism(t *testing.T) {
	a := runDurableScenario(t, 909)
	b := runDurableScenario(t, 909)
	if a.hash != b.hash || a.seq != b.seq {
		t.Fatalf("recovered stores diverged: %#x/%d vs %#x/%d", a.hash, a.seq, b.hash, b.seq)
	}
	if a.info != b.info || a.recoveredSeq != b.recoveredSeq {
		t.Fatalf("recovery diverged:\n%+v seq %d\n%+v seq %d", a.info, a.recoveredSeq, b.info, b.recoveredSeq)
	}
	if a.stats != b.stats {
		t.Fatalf("lifecycle stats diverged:\n%+v\n%+v", a.stats, b.stats)
	}
	if a.offloaded != b.offloaded || a.fallbacks != b.fallbacks {
		t.Fatalf("outcomes diverged: offloaded %d/%d fallbacks %d/%d",
			a.offloaded, b.offloaded, a.fallbacks, b.fallbacks)
	}
	if a.stats2 != b.stats2 {
		t.Fatalf("recovered deployment's stats diverged:\n%+v\n%+v", a.stats2, b.stats2)
	}
	if a.offloaded2 != b.offloaded2 || a.fallbacks2 != b.fallbacks2 {
		t.Fatalf("recovered deployment's outcomes diverged: offloaded %d/%d fallbacks %d/%d",
			a.offloaded2, b.offloaded2, a.fallbacks2, b.fallbacks2)
	}
}

// TestChaosDurableResyncDelta pins the O(delta) resync contract: after a
// quarantine with K fallback writes, the warm reload pushes exactly K
// keys into the kept heap — not the whole store.
func TestChaosDurableResyncDelta(t *testing.T) {
	const preload = 64
	const delta = 5
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Preload = false
	clk := &fakeClock{now: time.Unix(0, 0)}
	mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{
		BackoffBase: time.Millisecond,
		BackoffMax:  8 * time.Millisecond,
		ProbeRuns:   1,
		Now:         clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	sup := mc.Supervisor()

	keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
	for i := 0; i < preload; i++ {
		frame := memcached.EncodeSet(keyOf(i), workload.FormatValue(uint64(i+1), cfg.ValueSize))
		if reply, _, _ := mc.Execute(0, frame); len(reply) != 1 || reply[0] != 'S' {
			t.Fatalf("SET %d failed: %q", i, reply)
		}
	}

	// Operator quarantine (clean audit: nothing degraded organically).
	if !sup.Quarantine("maintenance") {
		t.Fatal("Quarantine refused on a healthy supervisor")
	}
	// K writes acknowledged on the fallback path while the heap is out.
	for i := 0; i < delta; i++ {
		frame := memcached.EncodeSet(keyOf(i), workload.FormatValue(uint64(i+1)*7, cfg.ValueSize))
		if _, _, offloaded := mc.Execute(0, frame); offloaded {
			t.Fatalf("quarantined SET %d claimed the offload path", i)
		}
	}

	clk.Advance(10 * time.Millisecond)
	// First request reloads warm and resyncs; ProbeRuns=1 closes the circuit.
	frame := memcached.EncodeGet(keyOf(0))
	if reply, _, _ := mc.Execute(0, frame); len(reply) < 1 || reply[0] != 'V' {
		t.Fatalf("post-reload GET: %q", reply)
	}
	st := sup.Stats()
	if st.WarmReloads != 1 {
		t.Fatalf("warm reloads = %d, want 1 (audit was clean)", st.WarmReloads)
	}
	if st.LastInit.FullResync {
		t.Fatalf("warm reload did a full resync: %+v", st.LastInit)
	}
	if st.LastInit.ResyncOps != delta {
		t.Fatalf("resync ops = %d, want exactly the %d dirty keys (O(delta) contract)",
			st.LastInit.ResyncOps, delta)
	}
	// The updated values are served from the kept heap on the offload path.
	for i := 0; i < delta; i++ {
		reply, _, offloaded := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
		want := workload.FormatValue(uint64(i+1)*7, cfg.ValueSize)
		if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], want) {
			t.Fatalf("GET %d after warm resync: %q", i, reply)
		}
		if !offloaded {
			t.Fatalf("GET %d not offloaded after recovery", i)
		}
	}
}
