package supervisor

// Generation transitions. Every way the loaded generation changes — the
// initial load, a cold reload, a warm reload, a migration — is a sequence of
// the functions below, and differs from the others only in which extension
// generation N+1 runs on, where its handles come from, and whether N is
// retired before N+1 exists:
//
//	                extension            handles               order
//	New / cold      new (Runtime.Load)   current route         (retire N) → load N+1 → init → install
//	warm reload     N's, revived         N's                   unload N, keep it → revive → init N+1 → install
//	migrate         N's, live            route with from → to  init N+1 → install
//
// Only a cold generation is loaded. A generation that keeps its heap keeps its
// extension — heap, allocator, per-CPU contexts and watchdog — and is a new
// Generation over it. A quarantine cannot roll back — the generation it
// retires is the one that failed — so N is unloaded before N+1 exists and a
// failed build leaves the circuit open. A migration never unloads N, which is
// why its rollback is "republish N".
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

// load builds generation gen on a new extension, with one handle per logical
// CPU at its routed physical slot, so a migrated CPU keeps its migrated home
// across reloads. With an unchanged spec the compiled artifacts come from
// the compile cache, so the cost is the heap and link stages, not a
// recompile.
func (s *Supervisor) load(gen uint64) (*Generation, error) {
	ext, err := s.cfg.Runtime.Load(s.cfg.Spec)
	if err != nil {
		return nil, err
	}
	if q := s.cfg.Tuning.WatchdogQuantum; q > 0 {
		// Covers every slot of the extension, routed to or not.
		ext.StartWatchdog(q, q/2)
	}
	return &Generation{Ext: ext, Handles: handlesOf(ext, s.route), Gen: gen}, nil
}

// handlesOf resolves each logical CPU's handle at its routed physical slot.
func handlesOf(ext *kflex.Extension, route []int) []*kflex.Handle {
	handles := make([]*kflex.Handle, len(route))
	for cpu, slot := range route {
		handles[cpu] = ext.Handle(slot)
	}
	return handles
}

// init runs Config.Init on g; g.Warm tells it that g's heap is populated and
// only the delta needs replaying.
func (s *Supervisor) init(g *Generation) (InitReport, error) {
	if s.cfg.Init == nil {
		return InitReport{}, nil
	}
	return s.cfg.Init(*g)
}

// discard retires g's extension for good: it is unloaded and closed, which
// stops its watchdog and detaches its heap's pages (§3.2 teardown).
func (s *Supervisor) discard(g *Generation) {
	g.Ext.Unload()
	g.Ext.Close()
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

// build is load + init for a cold generation: an Init failure discards it.
func (s *Supervisor) build(gen uint64) (*Generation, InitReport, error) {
	g, err := s.load(gen)
	if err != nil {
		return nil, InitReport{}, fmt.Errorf("supervisor: reload: %w", err)
	}
	return s.initOrDiscard(g)
}

// revive returns the extension a quarantine kept to service as a warm
// generation over the same handles. Nothing is in flight on it — its
// quarantine drained — so clearing its retirement races with no probe.
func (s *Supervisor) revive(kept *Generation) (*Generation, InitReport, error) {
	kept.Ext.Revive()
	return s.initOrDiscard(&Generation{Ext: kept.Ext, Handles: kept.Handles, Gen: kept.Gen + 1, Warm: true})
}

// initOrDiscard runs Init on g and discards g's extension, heap included, if
// it fails.
func (s *Supervisor) initOrDiscard(g *Generation) (*Generation, InitReport, error) {
	rep, err := s.init(g)
	if err != nil {
		s.discard(g)
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
// drained; only then is the heap audited, and the extension kept for a warm
// reload (Config.WarmReload, drained, clean, with a heap) or discarded.
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
	// An extension whose heap proved itself consistent with nothing running
	// on it is kept as it is — unloaded, its heap, allocator and watchdog
	// intact — for the next generation to revive, so recovery replays only
	// the delta. A heap that failed its invariants is exactly what a reload
	// must shed, and one an invocation may still touch cannot be revived.
	audit := s.auditLocked(reason)
	if !s.cfg.WarmReload || !drained || !audit.Clean || g.Ext.Heap() == nil {
		s.discard(g)
	}
	s.busy = false
	s.mu.Unlock()
}

// reloadLocked performs the due reload: success half-opens the circuit,
// failure re-quarantines at the next backoff tier. mu is held on entry and on
// return but released, with busy set, while the generation is built, so
// siblings keep falling back for as long as Init takes. A quarantined
// extension was either discarded, closing its heap, or kept, so one with an
// open heap is revived; if its Init fails, the kept state is the prime
// suspect: the extension is discarded and the reload goes cold before giving
// up.
func (s *Supervisor) reloadLocked() {
	start := s.cfg.Tuning.Now()
	gen := s.cur.Gen + 1
	kept := s.cur
	if h := kept.Ext.Heap(); h == nil || h.Closed() {
		kept = nil // its quarantine discarded it
	}
	s.busy = true
	s.mu.Unlock()

	var g *Generation
	var rep InitReport
	var err error
	if kept != nil {
		g, rep, err = s.revive(kept)
	}
	if kept == nil || err != nil {
		g, rep, err = s.build(gen)
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
	if g.Warm {
		s.stats.WarmReloads++
	}
	s.stats.LastRecovery = s.cfg.Tuning.Now().Sub(start)
	s.probeLeft = s.cfg.Tuning.ProbeRuns
	s.record(Quarantined, Probing, "reloaded")
	s.state = Probing
}
