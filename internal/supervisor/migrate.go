package supervisor

// Live cross-CPU heap migration. A supervised extension's heap — and the
// allocator magazines that carve it — can be moved from the physical
// handle slot serving one logical CPU to a free slot while traffic keeps
// flowing, without losing or duplicating a single acknowledged operation.
// Nothing is copied and nothing is loaded:
//
//   - every per-CPU context of the extension exists, stall-monitored, from
//     its Load, so the target generation is the same extension with the
//     moved CPU's handle taken from its new slot;
//   - the supervisor's fallback path absorbs mid-migration traffic into
//     the caller's dirty set, so the target resyncs O(delta), exactly like
//     a warm reload.
//
// The protocol is the third sequence of transition.go — admit → drain →
// audit → adopt (init) → publish (install) — and every phase after admit is
// covered by a dedicated fault-injection kind (faultinject.Migrate*). Any
// failure, injected or organic, rolls back: the extension was never unloaded,
// and the source generation still holds the old route, so rollback is
// "republish the source" — a half-moved heap cannot exist.

import (
	"fmt"
	"slices"
	"time"

	"kflex/internal/faultinject"
)

// MigratePhase identifies one phase of the live-migration protocol, for
// typed errors and reports.
type MigratePhase int

const (
	// PhaseAdmit validates the request and freezes traffic (state →
	// Migrating).
	PhaseAdmit MigratePhase = iota
	// PhaseDrain waits for in-flight invocations to quiesce, bounded by
	// Tuning.DrainTimeout.
	PhaseDrain
	// PhaseAudit runs the teardown invariant checks on the frozen heap; a
	// heap that fails its audit is never moved.
	PhaseAudit
	// PhaseAdopt replays the dirty-set delta through the target
	// generation's handles (the Init callback with Generation.Warm).
	PhaseAdopt
	// PhasePublish installs the target handle table and rewrites the
	// route under the supervisor lock.
	PhasePublish
)

func (p MigratePhase) String() string {
	switch p {
	case PhaseAdmit:
		return "admit"
	case PhaseDrain:
		return "drain"
	case PhaseAudit:
		return "audit"
	case PhaseAdopt:
		return "adopt"
	case PhasePublish:
		return "publish"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// MigrateError is the typed failure of a migration attempt. Every failed
// attempt has rolled back by the time the error is returned: the source
// generation is live, its heap un-moved.
type MigrateError struct {
	Ext      string
	From, To int
	Phase    MigratePhase
	Err      error
}

func (e *MigrateError) Error() string {
	return fmt.Sprintf("supervisor: migrate %s cpu %d -> slot %d: %s phase: %v",
		e.Ext, e.From, e.To, e.Phase, e.Err)
}

func (e *MigrateError) Unwrap() error { return e.Err }

// MigrationReport describes one migration attempt, committed or rolled
// back. Stats.LastMigration retains the most recent one.
type MigrationReport struct {
	// From is the logical CPU that moved; FromSlot and To are the physical
	// handle slots it was served by before and after.
	From, FromSlot, To int
	// Gen is the generation published by a committed migration (the
	// pre-attempt generation on rollback).
	Gen uint64
	// Phase is the phase the attempt reached: PhasePublish for a commit,
	// the failing phase for a rollback.
	Phase MigratePhase
	// RolledBack reports that the attempt failed and the source was kept.
	RolledBack bool
	// Err is the failure cause ("" on commit).
	Err string
	// ResyncOps is the dirty-set delta the target replayed into the moved
	// heap (0 on rollback before PhaseAdopt completed).
	ResyncOps int
	// Pause is the span from traffic freeze to publish (or rollback),
	// measured with Tuning.Now — the window during which requests took the
	// fallback path.
	Pause time.Duration
}

// Migrate moves logical CPU from onto free physical handle slot to,
// live: traffic observed between the freeze and the publish is served on
// the caller's user-space fallback (and lands in its dirty set, which the
// target replays O(delta) during adoption). On success the supervisor is
// Healthy with a new generation over the same extension whose handle for
// cpu from lives at slot to, and the route survives subsequent
// quarantine/reload cycles. On any failure the attempt rolls back — the
// source generation keeps serving from its original slot — and a
// *MigrateError reports the failing phase. An extension without a heap has
// nothing to migrate and fails in admit.
//
// Migrate is admitted only from Healthy and serializes against itself:
// a concurrent attempt fails in admit.
func (s *Supervisor) Migrate(from, to int) (MigrationReport, error) {
	plan := s.cfg.Spec.FaultPlan
	key := uint64(from)<<8 | uint64(to)

	// Phase: admit. Validate and freeze: the generation is unpublished at
	// the statement that leaves Healthy. Every Run that loads the pointer
	// after this store falls back; every Run that loaded it before has
	// already raised its CPU's in-flight counter (run raises, then loads),
	// so the drain below — which reads the counters after the store —
	// cannot miss it.
	s.mu.Lock()
	rep := MigrationReport{From: from, To: to, Gen: s.cur.Gen, Phase: PhaseAdmit}
	if err := s.admitMigrationLocked(&rep, from, to); err != nil {
		s.stats.MigrationFailures++
		s.stats.LastMigration = rep
		s.mu.Unlock()
		return rep, err
	}
	start := s.cfg.Tuning.Now()
	s.record(Healthy, Migrating, fmt.Sprintf("migrate cpu %d: slot %d -> %d", from, rep.FromSlot, to))
	s.state = Migrating
	s.busy = true
	s.live.Store(nil)
	src := s.cur
	route := slices.Clone(s.route)
	route[from] = to
	s.mu.Unlock()

	// Phase: drain. Wait for in-flight invocations to settle.
	rep.Phase = PhaseDrain
	if plan.Fire(faultinject.MigrateDrain, key) {
		return s.rollbackMigration(rep, start, false,
			fmt.Errorf("drain timeout with %d invocations in flight: %w", s.inflight(), faultinject.ErrInjected))
	}
	if !s.drain() {
		return s.rollbackMigration(rep, start, false,
			fmt.Errorf("drain timeout with %d invocations in flight", s.inflight()))
	}

	// Phase: audit. The frozen heap must pass the same invariant checks a
	// quarantine teardown runs (allocator accounting vs. populated pages,
	// dangling object-table entries, held locks); a heap that cannot
	// prove itself consistent is never moved. The injected variant models
	// the audit itself reporting an inconsistency.
	rep.Phase = PhaseAudit
	if plan.Fire(faultinject.MigrateAudit, key) {
		return s.rollbackMigration(rep, start, false,
			fmt.Errorf("pre-move audit failed: %w", faultinject.ErrInjected))
	}
	s.mu.Lock()
	audit := s.auditLocked(fmt.Sprintf("migration cpu %d: slot %d -> %d", from, rep.FromSlot, to))
	s.mu.Unlock()
	if !audit.Clean {
		return s.rollbackMigration(rep, start, false,
			fmt.Errorf("pre-move audit failed: consistency=%q refs=%d locks=%d pages=%d/%d/%d",
				audit.ConsistencyErr, audit.HeldRefs, audit.HeldLocks,
				audit.PopulatedPages, audit.MappedPages, audit.ExpectedPages))
	}

	// Phase: adopt. The target generation is the source's extension with
	// the moved CPU's handle at its new slot. Replay the dirty-set delta
	// through its handles — the warm-reload resync contract. A partial
	// replay is rollback-safe: it pushes authoritative store values into the
	// heap the source serves, so the values are correct either way.
	rep.Phase = PhaseAdopt
	if plan.Fire(faultinject.MigrateAdopt, key) {
		return s.rollbackMigration(rep, start, false,
			fmt.Errorf("target adoption failed: %w", faultinject.ErrInjected))
	}
	target := &Generation{Ext: src.Ext, Handles: handlesOf(src.Ext, route), Gen: src.Gen + 1, Warm: true}
	initRep, err := s.init(target)
	if err != nil {
		return s.rollbackMigration(rep, start, true, fmt.Errorf("target adoption: %w", err))
	}
	rep.ResyncOps = initRep.ResyncOps

	// Phase: publish. Install the target under the supervisor lock: the
	// handle table, the rewritten route, and the new generation become
	// visible to Run atomically with the state flip back to Healthy.
	rep.Phase = PhasePublish
	s.mu.Lock()
	if plan.Fire(faultinject.MigratePublish, key) {
		s.mu.Unlock()
		return s.rollbackMigration(rep, start, true,
			fmt.Errorf("publish lost: %w", faultinject.ErrInjected))
	}
	s.installLocked(target, initRep)
	s.route = route
	rep.Gen = target.Gen
	rep.Pause = s.cfg.Tuning.Now().Sub(start)
	s.stats.Migrations++
	s.stats.LastMigration = rep
	s.record(Migrating, Healthy, "migrated")
	s.state = Healthy
	s.busy = false
	s.live.Store(target)
	s.mu.Unlock()

	// The vacated slot's private magazines would be stranded — no handle
	// routes to it, so no Malloc can ever pop them again. Spill them back
	// to the depot where any CPU can refill from them. Nothing runs there:
	// the drain emptied it and no handle of the target names it.
	target.Ext.Alloc().RetireCPU(rep.FromSlot)
	return rep, nil
}

// admitMigrationLocked validates a migration request against the live
// route. It fills rep.FromSlot on success.
func (s *Supervisor) admitMigrationLocked(rep *MigrationReport, from, to int) error {
	fail := func(err error) error {
		rep.RolledBack = true
		rep.Err = err.Error()
		return &MigrateError{Ext: s.name(), From: from, To: to, Phase: PhaseAdmit, Err: err}
	}
	if s.state != Healthy {
		return fail(fmt.Errorf("state %v, need healthy", s.state))
	}
	if from < 0 || from >= len(s.route) {
		return fail(fmt.Errorf("cpu %d out of range [0,%d)", from, len(s.route)))
	}
	if to < 0 || to >= s.slots {
		return fail(fmt.Errorf("slot %d out of range [0,%d)", to, s.slots))
	}
	for cpu, slot := range s.route {
		if slot == to {
			return fail(fmt.Errorf("slot %d already serves cpu %d", to, cpu))
		}
	}
	if s.cur.Ext.Heap() == nil {
		return fail(fmt.Errorf("extension has no heap to migrate"))
	}
	rep.FromSlot = s.route[from]
	return nil
}

// rollbackMigration abandons an attempt: the circuit closes again on the
// source generation, whose extension was never unloaded and whose handles
// still follow the old route, and the typed error reports the failing phase.
// resynced says that Init ran through the target slot's handle.
func (s *Supervisor) rollbackMigration(rep MigrationReport, start time.Time, resynced bool, cause error) (MigrationReport, error) {
	s.mu.Lock()
	if resynced {
		// The resync may have populated magazines at the target slot;
		// nothing routes there after rollback, so spill them back to the
		// depot.
		s.cur.Ext.Alloc().RetireCPU(rep.To)
	}
	rep.RolledBack = true
	rep.Err = cause.Error()
	rep.Gen = s.cur.Gen
	rep.Pause = s.cfg.Tuning.Now().Sub(start)
	s.stats.MigrationFailures++
	s.stats.LastMigration = rep
	s.record(Migrating, Healthy, "migration rolled back: "+rep.Phase.String())
	s.state = Healthy
	s.busy = false
	s.live.Store(s.cur)
	s.mu.Unlock()
	return rep, &MigrateError{Ext: s.name(), From: rep.From, To: rep.To, Phase: rep.Phase, Err: cause}
}

// Route returns a copy of the logical-CPU → physical-slot table.
func (s *Supervisor) Route() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.route...)
}

// FreeSlots returns the physical slots no logical CPU currently routes
// to — the candidate targets for Migrate.
func (s *Supervisor) FreeSlots() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	used := make(map[int]bool, len(s.route))
	for _, slot := range s.route {
		used[slot] = true
	}
	free := make([]int, 0, s.slots-len(s.route))
	for slot := 0; slot < s.slots; slot++ {
		if !used[slot] {
			free = append(free, slot)
		}
	}
	return free
}
