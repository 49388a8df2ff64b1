package supervisor_test

import (
	"errors"
	"testing"
	"time"

	"kflex"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// migrateKey is the fault fire key for a cpu→slot migration.
func migrateKey(from, to int) uint64 { return uint64(from)<<8 | uint64(to) }

func TestMigrateHappyPath(t *testing.T) {
	var warmInits, coldInits int
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(), // Spec.NumCPUs defaults to 8 physical slots
		NumCPUs: 2,
		Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
			if g.Warm {
				warmInits++
				return supervisor.InitReport{ResyncOps: 3}, nil
			}
			coldInits++
			return supervisor.InitReport{ResyncOps: 10, FullResync: true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	ext0 := sup.Extension()
	// Park a block in the magazine of slot 0, the slot cpu 0 leaves.
	a := ext0.Alloc()
	if err := a.Free(0, a.Malloc(0, 64)); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().Spills; n != 0 {
		t.Fatalf("%d spills before the migration", n)
	}

	rep, err := sup.Migrate(0, 5)
	if err != nil {
		t.Fatalf("Migrate(0, 5) = %v", err)
	}
	if rep.RolledBack || rep.Phase != supervisor.PhasePublish || rep.From != 0 || rep.FromSlot != 0 || rep.To != 5 {
		t.Fatalf("report = %+v, want committed publish 0(slot 0)->5", rep)
	}
	if rep.Gen != 1 || sup.Gen() != 1 {
		t.Fatalf("gen = %d/%d, want 1 (migration publishes a new generation)", rep.Gen, sup.Gen())
	}
	if rep.ResyncOps != 3 {
		t.Fatalf("ResyncOps = %d, want the warm delta 3", rep.ResyncOps)
	}
	if warmInits != 1 || coldInits != 1 {
		t.Fatalf("inits warm=%d cold=%d, want 1/1 (a migration's resync is the warm path)", warmInits, coldInits)
	}
	// Nothing was loaded: the new generation runs on the same extension,
	// so the heap moved, not copied.
	if sup.Extension() != ext0 {
		t.Fatal("migration replaced the extension")
	}
	// The vacated slot's magazine went back to the depot.
	if n := a.Stats().Spills; n != 1 {
		t.Fatalf("%d spills after the migration, want 1 (slot 0's magazine)", n)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if route := sup.Route(); route[0] != 5 || route[1] != 1 {
		t.Fatalf("route = %v, want [5 1]", route)
	}
	if s := sup.State(); s != supervisor.Healthy {
		t.Fatalf("state = %v, want healthy", s)
	}
	// Both logical CPUs serve on the new generation.
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	for cpu := 0; cpu < 2; cpu++ {
		if res, err := sup.Run(cpu, nil, ctx); err != nil || res.Ret != kernel.XDPPass {
			t.Fatalf("post-migration Run(%d) = (%v, %v)", cpu, res.Ret, err)
		}
	}
	st := sup.Stats()
	if st.Migrations != 1 || st.MigrationFailures != 0 {
		t.Fatalf("stats = %+v, want 1 migration, 0 failures", st)
	}
	if st.LastMigration != rep {
		t.Fatalf("LastMigration = %+v, want %+v", st.LastMigration, rep)
	}
	// Trace shows the freeze/publish bracket; the audit ran and was clean.
	var froze, published bool
	for _, tr := range sup.Trace() {
		froze = froze || (tr.From == supervisor.Healthy && tr.To == supervisor.Migrating)
		published = published || (tr.From == supervisor.Migrating && tr.To == supervisor.Healthy && tr.Reason == "migrated")
	}
	if !froze || !published {
		t.Fatalf("trace missing freeze/publish edges: %+v", sup.Trace())
	}
	if audits := sup.Audits(); len(audits) != 1 || !audits[0].Clean {
		t.Fatalf("audits = %+v, want one clean pre-move report", audits)
	}
}

func TestMigrateAdmitValidation(t *testing.T) {
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		NumCPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	cases := []struct{ from, to int }{
		{-1, 5}, // cpu out of range
		{2, 5},  // cpu beyond NumCPUs
		{0, -1}, // slot out of range
		{0, 8},  // slot beyond the extension's table
		{0, 1},  // slot already serves cpu 1
		{0, 0},  // slot already serves cpu 0 itself
	}
	for _, c := range cases {
		rep, err := sup.Migrate(c.from, c.to)
		var me *supervisor.MigrateError
		if err == nil || !errors.As(err, &me) || me.Phase != supervisor.PhaseAdmit {
			t.Fatalf("Migrate(%d, %d) = (%+v, %v), want an admit MigrateError", c.from, c.to, rep, err)
		}
	}
	if st := sup.Stats(); st.MigrationFailures != uint64(len(cases)) || st.Migrations != 0 {
		t.Fatalf("stats = %+v, want %d admit failures", st, len(cases))
	}
	// A non-healthy supervisor refuses too.
	sup.Quarantine("maintenance")
	if _, err := sup.Migrate(0, 5); err == nil {
		t.Fatal("Migrate admitted while quarantined")
	}
	// Route and gen unchanged by any refused attempt.
	if route := sup.Route(); route[0] != 0 || route[1] != 1 {
		t.Fatalf("route mutated by refused attempts: %v", route)
	}
}

// TestMigrateFaultRollback injects a failure into every phase in turn and
// checks each attempt rolls back completely: same generation, same heap,
// identity route, Healthy state, and traffic still served by the source.
func TestMigrateFaultRollback(t *testing.T) {
	kinds := []struct {
		kind  faultinject.Kind
		phase supervisor.MigratePhase
	}{
		{faultinject.MigrateDrain, supervisor.PhaseDrain},
		{faultinject.MigrateAudit, supervisor.PhaseAudit},
		{faultinject.MigrateAdopt, supervisor.PhaseAdopt},
		{faultinject.MigratePublish, supervisor.PhasePublish},
	}
	for _, tc := range kinds {
		t.Run(tc.kind.String(), func(t *testing.T) {
			plan := faultinject.NewPlan(1)
			plan.FailNth(tc.kind, migrateKey(0, 3), 1)
			spec := trivialSpec()
			spec.FaultPlan = plan
			sup, err := supervisor.New(supervisor.Config{
				Runtime: kflex.NewRuntime(),
				Spec:    spec,
				NumCPUs: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sup.Close)
			h0, gen0 := sup.Extension().Heap(), sup.Gen()
			plan.Enable()

			rep, err := sup.Migrate(0, 3)
			var me *supervisor.MigrateError
			if err == nil || !errors.As(err, &me) {
				t.Fatalf("Migrate = (%+v, %v), want a MigrateError", rep, err)
			}
			if me.Phase != tc.phase || rep.Phase != tc.phase {
				t.Fatalf("failed phase = %v/%v, want %v", me.Phase, rep.Phase, tc.phase)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("error %v does not unwrap to ErrInjected", err)
			}
			if !rep.RolledBack || rep.Err == "" {
				t.Fatalf("report = %+v, want RolledBack with a cause", rep)
			}
			// Rollback invariants: nothing moved, nothing torn down.
			if sup.Gen() != gen0 {
				t.Fatalf("gen = %d, want %d (rollback must not publish)", sup.Gen(), gen0)
			}
			if sup.Extension().Heap() != h0 {
				t.Fatal("rollback did not keep the source heap")
			}
			if route := sup.Route(); route[0] != 0 || route[1] != 1 {
				t.Fatalf("route = %v, want identity after rollback", route)
			}
			if s := sup.State(); s != supervisor.Healthy {
				t.Fatalf("state = %v, want healthy after rollback", s)
			}
			st := sup.Stats()
			if st.Migrations != 0 || st.MigrationFailures != 1 {
				t.Fatalf("stats = %+v, want 0 migrations, 1 failure", st)
			}
			if !st.LastMigration.RolledBack {
				t.Fatalf("LastMigration = %+v, want rolled back", st.LastMigration)
			}
			// The source keeps serving, and a retry with the one-shot fault
			// consumed commits.
			ctx := make([]byte, kflex.HookXDP.CtxSize)
			if res, err := sup.Run(0, nil, ctx); err != nil || res.Ret != kernel.XDPPass {
				t.Fatalf("post-rollback Run = (%v, %v)", res.Ret, err)
			}
			if rep, err := sup.Migrate(0, 3); err != nil || rep.RolledBack {
				t.Fatalf("retry after rollback = (%+v, %v), want commit", rep, err)
			}
			if sup.Extension().Heap() != h0 {
				t.Fatal("retry moved a different heap")
			}
		})
	}
}

// TestMigrateRouteSurvivesReload checks a migrated CPU keeps its migrated
// slot across a quarantine/reload cycle: the route is supervisor state,
// not generation state.
func TestMigrateRouteSurvivesReload(t *testing.T) {
	clk := &clock{now: time.Unix(0, 0)}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		NumCPUs: 2,
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	if _, err := sup.Migrate(1, 6); err != nil {
		t.Fatal(err)
	}
	sup.Quarantine("maintenance")
	clk.Advance(5 * time.Millisecond)
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	if _, err := sup.Run(1, nil, ctx); err != nil {
		t.Fatalf("probe after reload: %v", err)
	}
	if route := sup.Route(); route[0] != 0 || route[1] != 6 {
		t.Fatalf("route after reload = %v, want [0 6]", route)
	}
	if free := sup.FreeSlots(); len(free) != 6 || free[0] != 1 {
		t.Fatalf("free slots = %v, want slot 1 freed and slot 6 occupied", free)
	}
}

// TestTraceAuditRingBounded checks the history windows are bounded while
// the lifetime totals keep counting — the soak-run memory fix. It runs
// enough quarantine/probe cycles to wrap both windows.
func TestTraceAuditRingBounded(t *testing.T) {
	clk := &clock{now: time.Unix(0, 0)}
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(),
		Spec:    trivialSpec(),
		Tuning: supervisor.Tuning{
			BackoffBase: time.Millisecond,
			BackoffMax:  4 * time.Millisecond,
			ProbeRuns:   1,
			Now:         clk.Now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)

	ctx := make([]byte, kflex.HookXDP.CtxSize)
	// 4 transitions + 1 audit each; one cycle more than fills the larger
	// window.
	cycles := max(supervisor.TraceDepth/4, supervisor.AuditDepth) + 1
	for i := 0; i < cycles; i++ {
		if !sup.Quarantine("cycle") {
			t.Fatalf("cycle %d: Quarantine refused", i)
		}
		clk.Advance(5 * time.Millisecond)
		if _, err := sup.Run(0, nil, ctx); err != nil {
			t.Fatalf("cycle %d probe: %v", i, err)
		}
	}

	trace := sup.Trace()
	if len(trace) != supervisor.TraceDepth {
		t.Fatalf("retained trace = %d entries, want %d", len(trace), supervisor.TraceDepth)
	}
	// Oldest-first within the window, which holds whole cycles: it opens
	// on a cycle's first edge and closes on the final cycle's last.
	if trace[0].From != supervisor.Healthy || trace[len(trace)-1].To != supervisor.Healthy {
		t.Fatalf("trace window misordered: first %+v, last %+v", trace[0], trace[len(trace)-1])
	}
	if audits := sup.Audits(); len(audits) != supervisor.AuditDepth {
		t.Fatalf("retained audits = %d, want %d", len(audits), supervisor.AuditDepth)
	}
	st := sup.Stats()
	if st.Transitions != uint64(4*cycles) {
		t.Fatalf("Transitions = %d, want %d lifetime edges", st.Transitions, 4*cycles)
	}
	if st.AuditsTotal != uint64(cycles) {
		t.Fatalf("AuditsTotal = %d, want %d", st.AuditsTotal, cycles)
	}
}
