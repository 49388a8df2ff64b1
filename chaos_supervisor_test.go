// Supervisor chaos: inject a deterministic fault burst into the supervised
// Memcached offload and walk the whole self-healing lifecycle — degrade,
// quarantine (audited heap teardown), backoff, reload with resync,
// half-open probing, closed circuit — asserting the paper's recovery
// invariants after every transition and that the same seed reproduces the
// same transition trace.
package kflex_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"kflex/internal/apps/memcached"
	"kflex/internal/faultinject"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// fakeClock makes the supervisor's backoff expiry request-driven instead
// of wall-clock-driven, so the transition trace is fully deterministic.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

type supervisorRun struct {
	trace     []supervisor.Transition
	audits    []supervisor.AuditReport
	events    []faultinject.Event
	offloaded uint64
	fallbacks uint64
}

// runSupervisorScenario drives one full fault-burst/recovery cycle and
// asserts the lifecycle invariants along the way.
func runSupervisorScenario(t *testing.T, seed int64) supervisorRun {
	t.Helper()
	// Every helper call fails while armed: each admitted request is
	// cancelled deterministically.
	plan := faultinject.NewPlan(seed).SetRate(faultinject.HelperErr, 1.0)
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Seed = seed
	cfg.Preload = false
	cfg.FaultPlan = plan
	cfg.CancelThreshold = 3
	clk := &fakeClock{now: time.Unix(0, 0)}
	mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{
		BackoffBase:         time.Millisecond,
		BackoffMax:          8 * time.Millisecond,
		ProbeRuns:           4,
		MaxConcurrentProbes: 1,
		JitterSeed:          seed + 1,
		Now:                 clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	sup := mc.Supervisor()

	const keys = 16
	keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
	valOf := func(i int) []byte { return workload.FormatValue(uint64(i+1), cfg.ValueSize) }
	set := func(i int) bool {
		reply, _, offloaded := mc.Execute(0, memcached.EncodeSet(keyOf(i), valOf(i)))
		if len(reply) != 1 || reply[0] != 'S' {
			t.Fatalf("SET %d: reply %q", i, reply)
		}
		return offloaded
	}
	get := func(i int) bool {
		reply, _, offloaded := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
		if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], valOf(i)) {
			t.Fatalf("GET %d: reply %q", i, reply)
		}
		return offloaded
	}

	// Phase A — Healthy: everything offloads, data round-trips.
	for i := 0; i < keys; i++ {
		if !set(i) {
			t.Fatalf("healthy SET %d not offloaded", i)
		}
		if !get(i) {
			t.Fatalf("healthy GET %d not offloaded", i)
		}
	}
	if s := sup.State(); s != supervisor.Healthy {
		t.Fatalf("after phase A: state %v, want healthy", s)
	}

	// Phase B — fault burst: cancellations cross the threshold, the
	// extension degrades, the heap is audited and quarantined. No request
	// is lost: the durable store answers every one.
	plan.Enable()
	for i := 0; sup.State() != supervisor.Quarantined; i++ {
		if i >= 16 {
			t.Fatalf("no quarantine after %d faulted requests", i)
		}
		get(i % keys)
	}
	plan.Disarm()
	// Circuit open, backoff not expired: all traffic falls back, still
	// correct.
	for i := 0; i < keys; i++ {
		if get(i) {
			t.Fatalf("quarantined GET %d claimed the offload path", i)
		}
	}
	if s := sup.State(); s != supervisor.Quarantined {
		t.Fatalf("after phase B: state %v, want quarantined", s)
	}
	audits := sup.Audits()
	if len(audits) != 1 {
		t.Fatalf("quarantine audits = %d, want 1", len(audits))
	}
	if !audits[0].Clean {
		t.Fatalf("quarantine audit not clean: %+v", audits[0])
	}

	// Phase C — recovery: past the backoff deadline the next request
	// reloads (fresh heap, Kie re-instrumentation, store resync), probes
	// half-open, and the circuit closes. Traffic returns to the offload.
	clk.Advance(10 * time.Millisecond) // > BackoffMax: deadline certainly due
	const total = 100
	offloadedC := 0
	for i := 0; i < total; i++ {
		if get(i % keys) {
			offloadedC++
		}
	}
	if s := sup.State(); s != supervisor.Healthy {
		t.Fatalf("after phase C: state %v, want healthy", s)
	}
	if sup.Stats().Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", sup.Stats().Reloads)
	}
	if offloadedC < total*9/10 {
		t.Fatalf("recovered offload fraction %d/%d, want >= 90%%", offloadedC, total)
	}
	// Post-recovery invariants on the live generation: no leaked pages,
	// no held locks, allocator accounting intact.
	checkInvariants(t, sup.Extension())
	if refs, held := sup.Extension().AuditHeld(); refs != 0 || held != 0 {
		t.Fatalf("held refs=%d locks=%d after recovery, want 0/0", refs, held)
	}

	return supervisorRun{
		trace:     sup.Trace(),
		audits:    audits,
		events:    plan.Events(),
		offloaded: mc.Offloaded,
		fallbacks: mc.Fallbacks,
	}
}

func TestChaosSupervisorRecovery(t *testing.T) {
	run := runSupervisorScenario(t, 404)
	// The trace must walk the full machine in order.
	wantEdges := []struct{ from, to supervisor.State }{
		{supervisor.Healthy, supervisor.Degraded},
		{supervisor.Degraded, supervisor.Quarantined},
		{supervisor.Quarantined, supervisor.Probing},
		{supervisor.Probing, supervisor.Healthy},
	}
	if len(run.trace) != len(wantEdges) {
		t.Fatalf("trace has %d transitions, want %d: %+v", len(run.trace), len(wantEdges), run.trace)
	}
	for i, e := range wantEdges {
		if run.trace[i].From != e.from || run.trace[i].To != e.to {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i,
				run.trace[i].From, run.trace[i].To, e.from, e.to)
		}
	}
}

// TestChaosSupervisorDeterminism re-runs the same seed and requires the
// identical lifecycle transition trace, audit reports, fault events, and
// request outcomes.
func TestChaosSupervisorDeterminism(t *testing.T) {
	a := runSupervisorScenario(t, 515)
	b := runSupervisorScenario(t, 515)
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("transition traces diverged:\n%+v\n%+v", a.trace, b.trace)
	}
	if !reflect.DeepEqual(a.audits, b.audits) {
		t.Fatalf("audit reports diverged:\n%+v\n%+v", a.audits, b.audits)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("fault traces diverged: %d vs %d events", len(a.events), len(b.events))
	}
	if a.offloaded != b.offloaded || a.fallbacks != b.fallbacks {
		t.Fatalf("outcomes diverged: offloaded %d/%d fallbacks %d/%d",
			a.offloaded, b.offloaded, a.fallbacks, b.fallbacks)
	}
}
