// Migration chaos: drive live cross-CPU heap migrations through the
// supervised Memcached offload with a seeded fault plan failing every
// cutover phase in turn, and assert the crash-safety contract — every
// attempt either commits (heap moved, dirty delta resynced O(delta)) or
// rolls back to the un-moved source with zero lost or duplicated
// acknowledged operations — plus the determinism contract: two
// identically seeded runs produce bit-identical traces, audits, fault
// events, and reports. A separate mid-traffic scenario (run under -race
// by `make check`) overlaps migrations and injected rollbacks with a
// live serving goroutine.
package kflex_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"kflex/internal/apps/memcached"
	"kflex/internal/faultinject"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// migrateFireKey is the fault fire key for a cpu→slot migration.
func migrateFireKey(from, to int) uint64 { return uint64(from)<<8 | uint64(to) }

// migratePhaseKinds orders the injectable cutover faults by the phase
// they hit, the staircase the scenario walks.
var migratePhaseKinds = []faultinject.Kind{
	faultinject.MigrateDrain,
	faultinject.MigrateAudit,
	faultinject.MigrateAdopt,
	faultinject.MigratePublish,
}

type migrateRun struct {
	trace   []supervisor.Transition
	audits  []supervisor.AuditReport
	events  []faultinject.Event
	reports []supervisor.MigrationReport
	route   []int
	offload uint64
	fallbk  uint64
}

// runMigrateScenario walks the fault staircase single-threaded: with
// FailNth armed once per migrate kind, attempt k fails in phase k
// (drain, audit, adopt, publish) and the attempt after the last commits. After
// every attempt the mutation oracle runs: each acknowledged SET's value
// must come back from a GET — served by the un-moved source after a
// rollback, by the migrated target after the commit.
func runMigrateScenario(t *testing.T, seed int64) migrateRun {
	t.Helper()
	plan := faultinject.NewPlan(seed)
	for _, kind := range migratePhaseKinds {
		plan.FailNth(kind, migrateFireKey(0, 1), 1)
	}
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Seed = seed
	cfg.Preload = false
	cfg.FaultPlan = plan
	cfg.Slots = 4          // free slots 1..3 are migration targets
	cfg.HeapSize = 1 << 21 // small heap: the sweep pays no 64 MiB links
	mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{JitterSeed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	sup := mc.Supervisor()

	const keys = 32
	keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
	// val generations: bumping gen rewrites every key with fresh values.
	valOf := func(i, gen int) []byte {
		return workload.FormatValue(uint64(i+1+1000*gen), cfg.ValueSize)
	}
	set := func(i, gen int) {
		reply, _, _ := mc.Execute(0, memcached.EncodeSet(keyOf(i), valOf(i, gen)))
		if len(reply) != 1 || reply[0] != 'S' {
			t.Fatalf("SET %d: reply %q", i, reply)
		}
	}
	// oracle checks every acknowledged SET is still served, exactly once,
	// with its latest acknowledged value.
	oracle := func(stage string, gens [keys]int) {
		t.Helper()
		for i := 0; i < keys; i++ {
			reply, _, _ := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
			if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], valOf(i, gens[i])) {
				t.Fatalf("%s: GET %d = %q, want value gen %d (lost or stale ack)",
					stage, i, reply, gens[i])
			}
		}
	}

	var gens [keys]int
	for i := 0; i < keys; i++ {
		set(i, 0)
	}
	h0 := sup.Extension().Heap()
	plan.Enable()

	var reports []supervisor.MigrationReport
	// One attempt per kind: each fails in its phase and rolls back completely.
	for attempt, kind := range migratePhaseKinds {
		rep, err := sup.Migrate(0, 1)
		var me *supervisor.MigrateError
		if err == nil || !errors.As(err, &me) {
			t.Fatalf("attempt %d (%v): err = %v, want MigrateError", attempt+1, kind, err)
		}
		if !errors.Is(err, faultinject.ErrInjected) || !rep.RolledBack {
			t.Fatalf("attempt %d (%v): rep=%+v err=%v, want injected rollback", attempt+1, kind, rep, err)
		}
		if got, want := rep.Phase, supervisor.MigratePhase(attempt+1); got != want {
			t.Fatalf("attempt %d failed in phase %v, want %v", attempt+1, got, want)
		}
		// Rollback invariants: the source is live, un-moved, and serves
		// every acknowledged value.
		if sup.State() != supervisor.Healthy || sup.Gen() != 0 {
			t.Fatalf("attempt %d: state=%v gen=%d after rollback", attempt+1, sup.State(), sup.Gen())
		}
		if sup.Extension().Heap() != h0 {
			t.Fatalf("attempt %d: rollback lost the source heap", attempt+1)
		}
		if route := sup.Route(); route[0] != 0 {
			t.Fatalf("attempt %d: route %v mutated by rollback", attempt+1, route)
		}
		oracle(fmt.Sprintf("after %v rollback", kind), gens)
		rep.Pause = 0 // wall-clock: excluded from the bit-exactness contract
		reports = append(reports, rep)
	}

	// Build a fresh dirty delta the commit must resync O(delta): the
	// publish-phase rollback already replayed (and unmarked) everything
	// dirtied before it, so these are the only dirty keys left.
	const delta = 8
	for i := 0; i < delta; i++ {
		gens[i]++
		mc.FallbackSet(keyOf(i), valOf(i, gens[i]))
	}

	// The last attempt: every one-shot fault is consumed; the cutover commits.
	rep, err := sup.Migrate(0, 1)
	if err != nil || rep.RolledBack {
		t.Fatalf("final attempt = (%+v, %v), want commit", rep, err)
	}
	if rep.ResyncOps != delta {
		t.Fatalf("commit resynced %d ops, want the dirty delta %d", rep.ResyncOps, delta)
	}
	if sup.Extension().Heap() != h0 {
		t.Fatal("migration copied the heap instead of moving it")
	}
	if route := sup.Route(); route[0] != 1 {
		t.Fatalf("route after commit = %v, want cpu 0 on slot 1", route)
	}
	if sup.Gen() != 1 {
		t.Fatalf("gen after commit = %d, want 1", sup.Gen())
	}
	oracle("after commit", gens)
	// Post-migration the moved heap still satisfies the teardown
	// invariants: nothing leaked across the cutover.
	plan.Disarm()
	checkInvariants(t, sup.Extension())
	st := sup.Stats()
	if st.Migrations != 1 || st.MigrationFailures != uint64(len(migratePhaseKinds)) {
		t.Fatalf("stats = %+v, want 1 commit and %d rollbacks", st, len(migratePhaseKinds))
	}
	rep.Pause = 0
	reports = append(reports, rep)

	return migrateRun{
		trace:   sup.Trace(),
		audits:  sup.Audits(),
		events:  plan.Events(),
		reports: reports,
		route:   sup.Route(),
		offload: mc.Offloaded,
		fallbk:  mc.Fallbacks,
	}
}

func TestChaosMigrateStaircase(t *testing.T) {
	run := runMigrateScenario(t, 808)
	// Every rollback and the commit bracket Migrating edges; count them.
	var freezes, rollbacks, commits int
	for _, tr := range run.trace {
		switch {
		case tr.To == supervisor.Migrating:
			freezes++
		case tr.From == supervisor.Migrating && tr.Reason == "migrated":
			commits++
		case tr.From == supervisor.Migrating:
			rollbacks++
		}
	}
	// One rollback per injected kind, then the commit; each attempt froze.
	faults := len(migratePhaseKinds)
	if freezes != faults+1 || rollbacks != faults || commits != 1 {
		t.Fatalf("trace freezes=%d rollbacks=%d commits=%d, want %d/%d/1: %+v",
			freezes, rollbacks, commits, faults+1, faults, run.trace)
	}
	// One clean pre-move audit per attempt that reached the audit phase
	// and passed it: the drain and audit injections fire before the real
	// audit runs, so every kind after MigrateAudit, and the commit, audits.
	for _, a := range run.audits {
		if !a.Clean {
			t.Fatalf("pre-move audit not clean: %+v", a)
		}
	}
	audited := faults - slices.Index(migratePhaseKinds, faultinject.MigrateAudit)
	if len(run.audits) != audited {
		t.Fatalf("audits = %d, want %d (a rollback after the audit phase, or the commit)", len(run.audits), audited)
	}
	// The fault trace shows exactly the five injected phase failures.
	if len(run.events) != len(migratePhaseKinds) {
		t.Fatalf("injected events = %d, want %d: %+v", len(run.events), len(migratePhaseKinds), run.events)
	}
	for i, ev := range run.events {
		if ev.Kind != migratePhaseKinds[i] {
			t.Fatalf("event %d = %v, want %v", i, ev.Kind, migratePhaseKinds[i])
		}
	}
}

// TestChaosMigrateDeterminism re-runs the staircase with the same seed
// and requires bit-identical traces, audits, fault events, migration
// reports, routes, and request outcomes.
func TestChaosMigrateDeterminism(t *testing.T) {
	a := runMigrateScenario(t, 909)
	b := runMigrateScenario(t, 909)
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("traces diverged:\n%+v\n%+v", a.trace, b.trace)
	}
	if !reflect.DeepEqual(a.audits, b.audits) {
		t.Fatalf("audits diverged:\n%+v\n%+v", a.audits, b.audits)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("fault traces diverged: %d vs %d events", len(a.events), len(b.events))
	}
	if !reflect.DeepEqual(a.reports, b.reports) {
		t.Fatalf("migration reports diverged:\n%+v\n%+v", a.reports, b.reports)
	}
	if !reflect.DeepEqual(a.route, b.route) || a.offload != b.offload || a.fallbk != b.fallbk {
		t.Fatalf("outcomes diverged: route %v/%v offloaded %d/%d fallbacks %d/%d",
			a.route, b.route, a.offload, b.offload, a.fallbk, b.fallbk)
	}
}

// TestChaosMigrateMidTraffic overlaps live migrations — including an
// injected mid-cutover rollback — with a serving goroutine, the scenario
// the drain/freeze protocol exists for. Run under -race (make check)
// it also proves the dirty-set locking: the adoption resync walks the
// dirty map on the migrator's goroutine while the server keeps
// acknowledging fallback SETs. The oracle is single-writer: the serving
// goroutine knows the exact value of every SET it acknowledged and
// verifies every subsequent GET against it.
func TestChaosMigrateMidTraffic(t *testing.T) {
	plan := faultinject.NewPlan(77)
	// The second migration (to slot 2) dies at adoption and rolls back
	// while traffic is in flight.
	plan.FailNth(faultinject.MigrateAdopt, migrateFireKey(0, 2), 1)
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 70})
	cfg.Seed = 77
	cfg.Preload = false
	cfg.FaultPlan = plan
	cfg.Slots = 4
	cfg.HeapSize = 1 << 21
	mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{
		DrainTimeout: 5 * time.Second, // generous: -race slows settlement
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	sup := mc.Supervisor()
	plan.Enable()

	const keys = 64
	keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		latest := make(map[int]uint64) // single-writer mutation oracle
		for op := uint64(1); ; op++ {
			select {
			case <-stop:
				return
			default:
			}
			i := int(op % keys)
			if op%3 == 0 {
				val := workload.FormatValue(op, cfg.ValueSize)
				reply, _, _ := mc.Execute(0, memcached.EncodeSet(keyOf(i), val))
				if len(reply) != 1 || reply[0] != 'S' {
					t.Errorf("mid-traffic SET %d: reply %q", i, reply)
					return
				}
				latest[i] = op
			} else if want, ok := latest[i]; ok {
				reply, _, _ := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
				wantVal := workload.FormatValue(want, cfg.ValueSize)
				if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], wantVal) {
					t.Errorf("mid-traffic GET %d = %q, want op %d's value (lost or stale ack)", i, reply, want)
					return
				}
			}
		}
	}()

	// Migrate the serving CPU around the slot table under live load:
	// 0→1 commits, 0→2 rolls back at adoption (injected), 0→2 retry
	// commits, 0→3 commits.
	steps := []struct {
		to       int
		wantFail bool
	}{{1, false}, {2, true}, {2, false}, {3, false}}
	for _, step := range steps {
		// Let traffic flow between cutovers so drains have work to wait
		// out and the dirty set accumulates fallback acks.
		time.Sleep(20 * time.Millisecond)
		rep, err := sup.Migrate(0, step.to)
		if step.wantFail {
			if err == nil || !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Migrate(0,%d) = (%+v, %v), want injected rollback", step.to, rep, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Migrate(0,%d): %v", step.to, err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if route := sup.Route(); route[0] != 3 {
		t.Fatalf("final route = %v, want cpu 0 on slot 3", route)
	}
	st := sup.Stats()
	if st.Migrations != 3 || st.MigrationFailures != 1 {
		t.Fatalf("stats = %+v, want 3 commits and 1 rollback", st)
	}
	if sup.State() != supervisor.Healthy {
		t.Fatalf("state = %v, want healthy", sup.State())
	}
	plan.Disarm()
	checkInvariants(t, sup.Extension())
}

// FuzzMigrateCutover fuzzes the cutover: an arbitrary seed, an arbitrary
// phase to fail (or none), and an arbitrary dirty-delta size must always
// land in one of exactly two states — committed with the delta resynced,
// or rolled back with the source serving every acknowledged value.
func FuzzMigrateCutover(f *testing.F) {
	f.Add(int64(1), byte(5), byte(4))
	f.Add(int64(2), byte(0), byte(0))
	f.Add(int64(3), byte(1), byte(9))
	f.Add(int64(4), byte(2), byte(1))
	f.Add(int64(5), byte(3), byte(16))
	f.Add(int64(6), byte(4), byte(7))
	f.Fuzz(func(t *testing.T, seed int64, phase, deltaRaw byte) {
		plan := faultinject.NewPlan(seed)
		inject := int(phase) % (len(migratePhaseKinds) + 1)
		injected := inject < len(migratePhaseKinds)
		if injected {
			plan.FailNth(migratePhaseKinds[inject], migrateFireKey(0, 1), 1)
		}
		cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
		cfg.Seed = seed
		cfg.Preload = false
		cfg.FaultPlan = plan
		cfg.Slots = 2
		cfg.HeapSize = 1 << 21
		mc, err := memcached.NewSupervised(cfg, 1, supervisor.Tuning{JitterSeed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		sup := mc.Supervisor()

		const keys = 16
		keyOf := func(i int) []byte { return workload.FormatKey(uint64(i+1), memcached.KeySize) }
		valOf := func(i, gen int) []byte {
			return workload.FormatValue(uint64(i+1+1000*gen), cfg.ValueSize)
		}
		var gens [keys]int
		for i := 0; i < keys; i++ {
			if reply, _, _ := mc.Execute(0, memcached.EncodeSet(keyOf(i), valOf(i, 0))); len(reply) != 1 || reply[0] != 'S' {
				t.Fatalf("SET %d: %q", i, reply)
			}
		}
		delta := int(deltaRaw) % keys
		for i := 0; i < delta; i++ {
			gens[i]++
			mc.FallbackSet(keyOf(i), valOf(i, gens[i]))
		}
		plan.Enable()

		rep, err := sup.Migrate(0, 1)
		if injected {
			if err == nil || !errors.Is(err, faultinject.ErrInjected) || !rep.RolledBack {
				t.Fatalf("phase %v: rep=%+v err=%v, want injected rollback", migratePhaseKinds[inject], rep, err)
			}
			if sup.Gen() != 0 || sup.Route()[0] != 0 {
				t.Fatalf("rollback published: gen=%d route=%v", sup.Gen(), sup.Route())
			}
		} else {
			if err != nil || rep.RolledBack {
				t.Fatalf("clean cutover = (%+v, %v)", rep, err)
			}
			if rep.ResyncOps != delta {
				t.Fatalf("resynced %d ops, want delta %d", rep.ResyncOps, delta)
			}
			if sup.Gen() != 1 || sup.Route()[0] != 1 {
				t.Fatalf("commit not published: gen=%d route=%v", sup.Gen(), sup.Route())
			}
		}
		plan.Disarm()
		// The oracle holds in both terminal states, and the heap (moved or
		// not) satisfies the teardown invariants.
		for i := 0; i < keys; i++ {
			reply, _, _ := mc.Execute(0, memcached.EncodeGet(keyOf(i)))
			if len(reply) < 1 || reply[0] != 'V' || !bytes.Equal(reply[1:], valOf(i, gens[i])) {
				t.Fatalf("GET %d = %q, want value gen %d", i, reply, gens[i])
			}
		}
		if sup.State() != supervisor.Healthy {
			t.Fatalf("state = %v, want healthy", sup.State())
		}
		checkInvariants(t, sup.Extension())
	})
}
