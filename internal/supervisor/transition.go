package supervisor

// Generation transitions. Every way the loaded generation changes — the
// initial load, a cold reload, a warm reload, a migration — is a sequence of
// the five functions below, and differs from the others only in where the
// new generation's heap comes from, which route it is built on, and whether
// the old generation is retired before the new one exists:
//
//	                heap          route                  order
//	New / cold      fresh         current                (retire N) → build N+1 → install
//	warm reload     N's, retained current                retire N, keep heap → build N+1 → install
//	migrate         N's, live     current, from → to     build N+1 → install → retire N
//
// A quarantine cannot roll back — the generation it retires is the one that
// failed — so N is gone before N+1 exists and a failed build leaves the
// circuit open. A migration retires N only after N+1 is installed, which is
// why its rollback is "discard N+1 and resume on N".
//
// One locking rule: mu is held for bookkeeping only. Runtime.Load, Config.Init
// and every drain run with mu released; the transition holds the busy mark
// instead, under which the state reads Quarantined (or Migrating) and sibling
// CPUs get the *OpenError that sends them to their fallback. The outcome is
// installed under mu.
//
// One judging rule: a heap is audited only after drain returned. Unpublishing
// and unloading stop new work at once; in-flight invocations unwind at their
// next cancellation point (§3.4), and only then do the held-reference and
// allocator invariants mean anything.

import (
	"fmt"
	"time"

	"kflex"
)

// load builds generation gen with one handle per logical CPU at its routed
// physical slot, so a migrated CPU keeps its migrated home across reloads.
// Given a donor the generation is Warm: it adopts the donor's heap and
// allocator (Spec.Adopt, validated by Runtime.Load) instead of building a
// fresh heap. With an unchanged spec the compiled artifacts come from the
// compile cache, so the cost is the heap and link stages, not a recompile.
func (s *Supervisor) load(gen uint64, route []int, donor *kflex.Extension) (*Generation, error) {
	spec := s.cfg.Spec
	spec.Adopt = donor
	ext, err := s.cfg.Runtime.Load(spec)
	if err != nil {
		return nil, err
	}
	if q := s.cfg.Tuning.WatchdogQuantum; q > 0 {
		// Covers every slot of the extension, routed to or not.
		ext.StartWatchdog(q, q/2)
	}
	handles := make([]*kflex.Handle, len(route))
	for cpu, slot := range route {
		handles[cpu] = ext.Handle(slot)
	}
	return &Generation{Ext: ext, Handles: handles, Gen: gen, Warm: donor != nil}, nil
}

// init runs Config.Init on g; g.Warm tells it that g adopted a populated
// heap and only the delta needs replaying.
func (s *Supervisor) init(g *Generation) (InitReport, error) {
	if s.cfg.Init == nil {
		return InitReport{}, nil
	}
	return s.cfg.Init(*g)
}

// discard retires g. A generation that owns its heap closes it (detaching
// its pages, §3.2 teardown). One whose heap lives on in another generation —
// a migration's source after the publish, its half-built target on rollback,
// a quarantined generation whose heap the next one will adopt — only stops
// its own watchdog: the heap and its allocator belong to the survivor.
func (s *Supervisor) discard(g *Generation, heapLivesOn bool) {
	g.Ext.Unload()
	if heapLivesOn {
		g.Ext.StopWatchdog()
	} else {
		g.Ext.Close()
	}
}

// installLocked makes g the current generation and accounts its InitReport.
func (s *Supervisor) installLocked(g *Generation, rep InitReport) {
	s.cur = g
	s.stats.LastInit = rep
	s.stats.ResyncOps += uint64(rep.ResyncOps)
}

// drain waits for the invocations that were in flight when the generation
// was unpublished, and reports whether they all settled within
// Tuning.DrainTimeout. The deadline is wall clock, not Tuning.Now: a fake
// clock must not turn a healthy drain into a spurious timeout (or mask a
// real stall). Called with mu released.
func (s *Supervisor) drain() bool {
	deadline := time.Now().Add(s.cfg.Tuning.DrainTimeout)
	for s.inflight() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// inflight sums the per-CPU in-flight counters. No counter is ever negative
// (a run raises before it lowers), so a zero sum means every slot read zero.
func (s *Supervisor) inflight() (n int64) {
	for i := range s.cpus {
		n += s.cpus[i].inflight.Load()
	}
	return n
}

// auditLocked checks the teardown invariants of the current generation and
// retains the report. Fault injection is suspended meanwhile, so observation
// can't itself inject.
func (s *Supervisor) auditLocked(reason string) AuditReport {
	defer s.cfg.Spec.FaultPlan.Suspend()()
	ext := s.cur.Ext
	rep := AuditReport{Ext: s.name(), Gen: s.cur.Gen, Reason: reason}
	rep.HeldRefs, rep.HeldLocks = ext.AuditHeld()
	if h := ext.Heap(); h != nil {
		rep.PopulatedPages = h.PopulatedPages()
		rep.MappedPages = h.MappedPages()
	}
	if a := ext.Alloc(); a != nil {
		rep.ExpectedPages = a.ExpectedPopulatedPages()
		if err := a.CheckConsistency(); err != nil {
			rep.ConsistencyErr = err.Error()
		}
	}
	rep.Clean = rep.ConsistencyErr == "" &&
		rep.HeldRefs == 0 && rep.HeldLocks == 0 &&
		rep.PopulatedPages == rep.MappedPages &&
		rep.PopulatedPages == rep.ExpectedPages
	s.audits.push(rep)
	s.stats.AuditsTotal++
	return rep
}

// build is load + init for a generation that owns its heap (fresh, or
// adopted from a donor already retired): an Init failure discards it, heap
// included.
func (s *Supervisor) build(gen uint64, donor *kflex.Extension) (*Generation, InitReport, error) {
	g, err := s.load(gen, s.route, donor)
	if err != nil {
		return nil, InitReport{}, fmt.Errorf("supervisor: reload: %w", err)
	}
	rep, err := s.init(g)
	if err != nil {
		s.discard(g, false)
		return nil, rep, fmt.Errorf("supervisor: init: %w", err)
	}
	return g, rep, nil
}

// quarantineUnlock retires the current generation. mu is held on entry —
// the caller checked its guards and recorded its edge under it — and
// released on return. Under mu the generation is unpublished and unloaded, so
// no new invocation starts and running ones unwind, the circuit opens and the
// reload deadline is set by capped exponential backoff with deterministic
// jitter. Then, mu released and busy set, the in-flight invocations are
// drained; only then is the heap audited and kept for adoption
// (Config.WarmReload, drained, clean) or closed.
func (s *Supervisor) quarantineUnlock(reason string) {
	// Unpublish first: a run that loaded the generation a moment ago finds
	// it unloaded and takes the fallback.
	s.live.Store(nil)
	g := s.cur
	g.Ext.Unload()
	if s.state == Healthy {
		s.record(Degraded, Quarantined, reason)
	}
	s.state = Quarantined
	s.stats.Quarantines++
	s.backoffLocked()
	s.busy = true
	s.mu.Unlock()

	drained := s.drain()

	s.mu.Lock()
	// A heap that proved itself consistent with nothing running on it stays
	// open in g (with the allocator that owns its carving) for the next
	// generation to adopt, so recovery replays only the delta. One that
	// failed its invariants is exactly what a reload must shed, and one an
	// invocation may still touch cannot be handed on.
	audit := s.auditLocked(reason)
	s.discard(g, s.cfg.WarmReload && drained && audit.Clean)
	s.busy = false
	s.mu.Unlock()
}

// reloadLocked performs the due reload: success half-opens the circuit,
// failure re-quarantines at the next backoff tier. mu is held on entry and on
// return but released, with busy set, while the generation is built, so
// siblings keep falling back for as long as Init takes. A quarantined
// generation's heap is either closed or was kept for adoption, so an open one
// is adopted; if that generation fails to load or initialise, the inherited
// state is the prime suspect: the heap is closed and the build retried cold
// before giving up.
func (s *Supervisor) reloadLocked() {
	start := s.cfg.Tuning.Now()
	gen := s.cur.Gen + 1
	var donor *kflex.Extension
	if h := s.cur.Ext.Heap(); h != nil && !h.Closed() {
		donor = s.cur.Ext // its quarantine kept the heap: drained and clean
	}
	s.busy = true
	s.mu.Unlock()

	g, rep, err := s.build(gen, donor)
	if err != nil && donor != nil {
		donor.Heap().Close()
		donor = nil
		g, rep, err = s.build(gen, nil)
	}

	s.mu.Lock()
	s.busy = false
	if err != nil {
		s.stats.ReloadFailures++
		s.record(Quarantined, Quarantined, "reload failed")
		s.backoffLocked()
		return
	}
	s.installLocked(g, rep)
	s.stats.Reloads++
	if donor != nil {
		s.stats.WarmReloads++
	}
	s.stats.LastRecovery = s.cfg.Tuning.Now().Sub(start)
	s.probeLeft = s.cfg.Tuning.ProbeRuns
	s.record(Quarantined, Probing, "reloaded")
	s.state = Probing
}
