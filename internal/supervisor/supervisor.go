// Package supervisor implements a self-healing lifecycle for KFlex
// extensions. The paper makes extension *termination* cheap and safe
// (§3.4, §4.3); the runtime's cancellation policy (Spec.CancelThreshold:
// by default the first cancellation) retires the extension — but a retired
// extension forfeits the offload speedup the evaluation (§5) exists to
// measure, forever. The supervisor turns that fail-stop policy into
// fail-operational behaviour with a per-extension state machine:
//
//	Healthy ─────retired──────▶ Degraded ──audit+teardown──▶ Quarantined
//	   ▲                                                            │
//	   │ probe successes                                            │ backoff
//	   └──────────────── Probing ◀──reload (cold or warm)───────────┘
//	                        │
//	                        └──probe failure──▶ Quarantined (next tier)
//
// On degradation the extension's heap is quarantined: a consistency audit
// (allocator accounting vs. populated pages, dangling object-table
// entries, held locks) runs with fault injection suspended and its report
// is retained for post-mortem, then the heap's pages are detached (§3.2
// teardown), unless a warm reload keeps it. A reload is scheduled with capped
// exponential backoff plus deterministic jitter. A cold reload goes back
// through the runtime's staged compile pipeline, where an unchanged spec hits
// the compile cache — verification, Kie instrumentation, and lowering
// artifacts are reused and only a fresh heap is linked; a warm one revives
// the kept extension. Traffic re-admission goes through
// a half-open circuit breaker: a bounded number of probe Runs execute on
// the reloaded extension while the rest of the traffic stays on the
// user-space fallback; enough successes close the circuit, any failure
// re-quarantines at the next backoff tier.
//
// Reloads are request-driven (checked on Run once the backoff deadline
// passes) rather than performed by a background goroutine, and the clock
// and jitter source are injectable, so a fixed seed reproduces the same
// lifecycle transition trace — the same property the fault-injection plan
// gives the chaos suite. The Run that finds the reload due performs it with
// the supervisor's mutex released, so sibling CPUs keep getting their
// fallback answer for as long as the resync takes. Every transition —
// initial load, cold reload, warm reload, migration — is a sequence of the
// same few functions; see transition.go.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kflex"
)

// State is a lifecycle state of a supervised extension.
type State int

const (
	// Healthy: the circuit is closed; all traffic runs on the extension.
	Healthy State = iota
	// Degraded: the extension was retired — by the runtime's cancellation
	// policy, whatever its threshold, or by the operator. Transient — the supervisor immediately
	// audits and quarantines, so Degraded appears in traces but is never
	// a resting state.
	Degraded
	// Quarantined: the circuit is open. The heap has been audited and
	// detached; all traffic falls back until the backoff deadline.
	Quarantined
	// Probing: the circuit is half-open. A reloaded extension serves a
	// bounded number of probe Runs; the rest of the traffic falls back.
	Probing
	// Migrating: a live cross-CPU migration is in flight. The source
	// handle is drained and frozen; traffic falls back to the user-space
	// path (and lands in the caller's dirty set) until the target slot is
	// published or the migration rolls back. See Supervisor.Migrate.
	Migrating
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Probing:
		return "probing"
	case Migrating:
		return "migrating"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Transition is one recorded state-machine edge. Transitions carry no
// timestamps: with a fixed fault seed and clock, a run's trace is
// byte-for-byte reproducible.
type Transition struct {
	From, To State
	// Reason is a stable, human-readable cause ("cancel threshold",
	// "probe failed", ...).
	Reason string
	// Gen is the extension generation the transition applied to
	// (incremented on every successful reload).
	Gen uint64
	// Tier is the backoff tier entering the new state.
	Tier int
}

// AuditReport is the retained post-mortem of one quarantine: the paper's
// teardown invariants (§3.2 heap accounting, §3.4 object-table unwinding)
// checked at the moment the heap left service.
type AuditReport struct {
	Ext    string
	Gen    uint64
	Reason string
	// PopulatedPages is the heap's demand-paging charge counter;
	// MappedPages recounts the per-page flags; ExpectedPages derives the
	// count from allocator carving. All three must agree.
	PopulatedPages, MappedPages, ExpectedPages uint64
	// HeldRefs and HeldLocks count kernel-object references and
	// extension locks still held across handles — dangling object-table
	// entries if nonzero.
	HeldRefs, HeldLocks int
	// ConsistencyErr is the allocator CheckConsistency failure, if any.
	ConsistencyErr string
	// Clean reports whether every invariant held.
	Clean bool
}

// OpenError is returned while the circuit is open (Quarantined) or the
// half-open probe quota is exhausted (Probing): the caller should serve
// the request on its user-space path. It matches kflex.ErrFallback via
// errors.Is.
type OpenError struct {
	Ext   string
	State State
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("supervisor: extension %q circuit %s, serve via user-space fallback", e.Ext, e.State)
}

// Is makes errors.Is(err, kflex.ErrFallback) hold for every OpenError.
func (e *OpenError) Is(target error) bool { return target == kflex.ErrFallback }

// CPURangeError is returned by Run and RunContext for a cpu index outside
// [0, Config.NumCPUs). It is a caller bug, not a lifecycle outcome: it does
// not match ErrFallback, and no shared supervisor state was touched.
type CPURangeError struct {
	Ext     string
	CPU     int
	NumCPUs int
}

func (e *CPURangeError) Error() string {
	return fmt.Sprintf("supervisor: extension %q: cpu %d out of range [0,%d)", e.Ext, e.CPU, e.NumCPUs)
}

// Tuning sets the circuit-breaker parameters. Zero values take defaults.
type Tuning struct {
	// BackoffBase is the first quarantine duration; each further tier
	// doubles it (default 10ms).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff (default 1s).
	BackoffMax time.Duration
	// ProbeRuns is how many consecutive probe successes close the
	// half-open circuit (default 8).
	ProbeRuns int
	// MaxConcurrentProbes bounds in-flight probe Runs while half-open;
	// excess traffic falls back (default 2).
	MaxConcurrentProbes int
	// JitterSeed seeds the deterministic backoff jitter (default 1).
	JitterSeed int64
	// Now is the clock; tests inject a fake clock so backoff expiry — and
	// with it the whole transition trace — is independent of wall time.
	// Defaults to time.Now.
	Now func() time.Time
	// DrainTimeout bounds how long a transition waits for in-flight
	// invocations to quiesce before it judges the heap (default 1s): a
	// migration that times out rolls back, a quarantine audits anyway and
	// its reload goes cold. It is measured against the wall clock, not Now:
	// a fake clock must not turn a healthy drain into a spurious timeout.
	DrainTimeout time.Duration
	// WatchdogQuantum, when positive, makes the supervisor arm a
	// wall-clock stall watchdog on every extension it loads, over every
	// slot of its handle table, scanning twice a quantum. A warm reload and
	// a migration keep the extension, and with it its watchdog.
	WatchdogQuantum time.Duration
}

// traceDepth bounds the retained transition history and auditDepth the
// retained audit reports; older entries are evicted oldest-first while
// Stats keeps lifetime totals, so soak runs do not grow without bound.
const (
	traceDepth = 256
	auditDepth = 64
)

// Generation is one loaded instance of the extension: what the supervisor
// runs on and what it hands the Init callback. It is immutable once built,
// so run may use a pointer to it without holding mu.
type Generation struct {
	Ext *kflex.Extension
	// Handles holds each logical CPU's handle, at its routed physical slot.
	Handles []*kflex.Handle
	// Gen is 0 for the initial load and grows by one per successful reload
	// or committed migration.
	Gen uint64
	// Warm reports that this generation runs on the previous generation's
	// extension — revived by a warm reload (Config.WarmReload and a clean
	// quarantine audit) or kept live by a migration: the data it
	// accumulated is already in its heap, so Init should replay only the
	// delta its store tracked as dirty — not re-push every key.
	Warm bool
}

// InitReport is what one Init run did — recovery work the supervisor
// accumulates into Stats, so tests and benchmarks can assert the O(delta)
// resync contract instead of trusting it.
type InitReport struct {
	// ResyncOps is the number of store entries Init pushed into the
	// generation's heap.
	ResyncOps int
	// FullResync reports that Init re-pushed the entire store — the cold
	// path. Warm generations with a tracked dirty set report false.
	FullResync bool
}

// Config describes a supervised extension.
type Config struct {
	// Runtime loads each generation of the extension.
	Runtime *kflex.Runtime
	// Spec is reloaded verbatim on every cold recovery. Because the spec is
	// unchanged, the runtime's compile cache serves the verify/instrument/
	// lower artifacts and the reload only links a fresh heap.
	Spec kflex.Spec
	// NumCPUs is how many handles each generation creates; Run's cpu
	// argument must stay below it (default 1; a *CPURangeError otherwise).
	// Like kflex.Handle, each cpu index must not be used concurrently with
	// itself.
	NumCPUs int
	// Init re-initialises a freshly loaded generation (e.g. replaying a
	// durable store into the new heap) before it takes traffic. An Init
	// failure counts as a failed probe: the generation is discarded and
	// the quarantine moves to the next backoff tier (a warm reload first
	// discards the kept extension and falls back to a cold load, since its
	// state is the prime suspect; a migration rolls back).
	Init func(g Generation) (InitReport, error)
	// WarmReload keeps the quarantined generation's extension — heap,
	// allocator, handles and watchdog — when its teardown audit comes back
	// clean, and revives it as the next generation (Extension.Revive; see
	// Generation.Warm). A dirty audit always falls back to a cold load — a
	// heap that failed its consistency audit is exactly the state a reload
	// exists to shed — and so do a quarantine whose drain timed out
	// (Tuning.DrainTimeout), since an invocation that may still touch the
	// heap rules out reviving it, and an extension without a heap. Off by
	// default: Init must then honour Generation.Warm.
	WarmReload bool
	// Tuning sets circuit-breaker parameters.
	Tuning Tuning
}

// Stats are cumulative lifecycle counters, exposed by Supervisor.Stats.
type Stats struct {
	// Reloads counts successful reloads; ReloadFailures counts reload
	// attempts whose load or init failed; Quarantines counts entries into
	// Quarantined.
	Reloads, ReloadFailures, Quarantines uint64
	// WarmReloads counts reloads that revived the previous extension.
	WarmReloads uint64
	// ResyncOps accumulates the InitReports of every generation.
	ResyncOps uint64
	// LastInit is the most recent generation's InitReport verbatim.
	LastInit InitReport
	// LastRecovery is the duration of the most recent successful reload
	// (load + init), measured with Tuning.Now.
	LastRecovery time.Duration
	// Transitions and AuditsTotal are lifetime counts of recorded
	// state-machine edges and quarantine/migration audits; Trace() and
	// Audits() retain only the newest traceDepth/auditDepth.
	Transitions uint64
	AuditsTotal uint64
	// Migrations counts committed cross-CPU migrations;
	// MigrationFailures counts attempts that rolled back.
	Migrations        uint64
	MigrationFailures uint64
	// LastMigration is the most recent migration attempt's report.
	LastMigration MigrationReport
}

// Supervisor wraps one extension with the lifecycle state machine. All
// methods are safe for concurrent use, subject to the per-cpu handle rule.
type Supervisor struct {
	cfg Config

	// live is the generation a healthy invocation runs on: non-nil exactly
	// while state is Healthy. It is stored only under mu, at the statement
	// that changes state, and loaded by run without any lock.
	live atomic.Pointer[Generation]
	// cpus holds each logical CPU's in-flight counter, one padded slot per
	// CPU so the per-invocation writes of different CPUs never share a
	// cache line.
	cpus []cpuSlot

	// mu guards the bookkeeping below and is never held across
	// Runtime.Load, Config.Init or a drain (see transition.go).
	mu    sync.Mutex
	state State
	// busy marks a transition in flight with mu released — a quarantine's
	// drain, a reload's load and Init, a migration — and keeps every other
	// transition out until its owner clears it.
	busy bool
	// closed is set by Close: no reload is ever due again.
	closed bool
	// cur is the loaded generation in every state (nil only inside New,
	// before the first load); Healthy publishes it as live.
	cur      *Generation
	tier     int
	reloadAt time.Time
	// probeLeft is the number of further probe successes required to
	// close the circuit; probesInFlight bounds half-open concurrency.
	probeLeft      int
	probesInFlight int
	rng            *rand.Rand
	trace          *ring[Transition]
	audits         *ring[AuditReport]
	stats          Stats

	// route maps each logical CPU (the index callers pass to Run) onto a
	// physical handle slot of the live extension. It starts as the
	// identity and is rewritten by Migrate; it survives quarantine/reload
	// cycles, so a migrated shard recovers on its migrated home.
	route []int
	// slots is the extension's physical handle-slot count (Spec.NumCPUs
	// after the runtime's defaulting); migration targets must lie below it.
	slots int
}

// cpuSlot is one logical CPU's share of the invocation path.
type cpuSlot struct {
	// inflight counts this CPU's invocations between "about to resolve the
	// generation" and "invocation returned". Every transition's drain
	// waits for every slot to read zero.
	inflight atomic.Int64
	// Two lines, not one: adjacent-line prefetch pairs 64-byte lines.
	_ [128 - 8]byte
}

// New loads the extension and starts it Healthy. The Init callback runs
// for the initial generation too, so generation 0 and every reload share
// one initialisation path.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("supervisor: Config.Runtime is required")
	}
	if cfg.NumCPUs <= 0 {
		cfg.NumCPUs = 1
	}
	if cfg.Tuning.BackoffBase <= 0 {
		cfg.Tuning.BackoffBase = 10 * time.Millisecond
	}
	if cfg.Tuning.BackoffMax <= 0 {
		cfg.Tuning.BackoffMax = time.Second
	}
	if cfg.Tuning.BackoffMax < cfg.Tuning.BackoffBase {
		cfg.Tuning.BackoffMax = cfg.Tuning.BackoffBase
	}
	if cfg.Tuning.ProbeRuns <= 0 {
		cfg.Tuning.ProbeRuns = 8
	}
	if cfg.Tuning.MaxConcurrentProbes <= 0 {
		cfg.Tuning.MaxConcurrentProbes = 2
	}
	if cfg.Tuning.JitterSeed == 0 {
		cfg.Tuning.JitterSeed = 1
	}
	if cfg.Tuning.Now == nil {
		cfg.Tuning.Now = time.Now
	}
	if cfg.Tuning.DrainTimeout <= 0 {
		cfg.Tuning.DrainTimeout = time.Second
	}
	// slots is the extension's physical handle-slot table, defaulted as
	// Runtime.Load defaults it. Migration needs headroom, so a spec may
	// declare more slots than the supervisor's logical CPUs — but never
	// fewer.
	slots := cfg.Spec.NumCPUs
	if slots <= 0 {
		slots = kflex.DefaultNumCPUs
	}
	if cfg.NumCPUs > slots {
		return nil, fmt.Errorf("supervisor: NumCPUs %d exceeds the extension's %d handle slots", cfg.NumCPUs, slots)
	}
	s := &Supervisor{
		cfg:    cfg,
		state:  Healthy,
		rng:    rand.New(rand.NewSource(cfg.Tuning.JitterSeed)),
		trace:  newRing[Transition](traceDepth),
		audits: newRing[AuditReport](auditDepth),
		route:  make([]int, cfg.NumCPUs),
		slots:  slots,
		cpus:   make([]cpuSlot, cfg.NumCPUs),
	}
	for cpu := range s.route {
		s.route[cpu] = cpu
	}
	g, rep, err := s.build(0)
	if err != nil {
		return nil, err
	}
	s.installLocked(g, rep) // nothing else can reach s yet
	s.live.Store(g)
	return s, nil
}

// Run invokes the supervised extension for one event on the given cpu,
// driving the lifecycle state machine: it performs due reloads, admits or
// rejects half-open probes, and quarantines a retired generation. An error
// matching kflex.ErrFallback (an *OpenError or *kflex.DegradedError) means
// the caller must serve the request on its user-space path.
func (s *Supervisor) Run(cpu int, event any, hctx []byte) (kflex.Result, error) {
	return s.run(nil, cpu, event, hctx)
}

// RunContext is Run with caller deadline propagation: ctx expiry triggers
// the same cooperative cancellation/unwinding path as the quantum
// watchdog (see kflex.Handle.RunContext).
func (s *Supervisor) RunContext(ctx context.Context, cpu int, event any, hctx []byte) (kflex.Result, error) {
	return s.run(ctx, cpu, event, hctx)
}

// invoke runs one event on h: Run's callers pass a nil ctx, RunContext's
// the caller's. A direct call, not a closure: the Result comes back through
// one copy fewer, on a path whose whole budget is a few of them.
func invoke(ctx context.Context, h *kflex.Handle, event any, hctx []byte) (kflex.Result, error) {
	if ctx == nil {
		return h.Run(event, hctx)
	}
	return h.RunContext(ctx, event, hctx)
}

// run is the invocation path. While the extension is Healthy it takes no
// lock and reads no clock: it raises cpu's in-flight counter, then loads the
// published generation. The order is half of a Dekker pairing — a transition
// unpublishes the generation (under mu), then reads the counters — so with
// sequentially consistent atomics either this run sees nil and steps aside,
// or the drain sees it counted and waits for it.
func (s *Supervisor) run(ctx context.Context, cpu int, event any, hctx []byte) (kflex.Result, error) {
	if cpu < 0 || cpu >= len(s.cpus) {
		return kflex.Result{}, &CPURangeError{Ext: s.name(), CPU: cpu, NumCPUs: len(s.cpus)}
	}
	slot := &s.cpus[cpu]
	for {
		slot.inflight.Add(1)
		if g := s.live.Load(); g != nil {
			h := g.Handles[cpu]
			res, err := invoke(ctx, h, event, hctx)
			if retiredOutcome(res, err, h) {
				// Lowered around the quarantine, which drains these counters
				// and must not wait on its own caller.
				slot.inflight.Add(-1)
				s.quarantineOn(g.Gen)
				slot.inflight.Add(1)
			}
			slot.inflight.Add(-1)
			return res, err
		}
		slot.inflight.Add(-1)
		if res, settled, err := s.runUnpublished(ctx, cpu, event, hctx); settled {
			return res, err
		}
	}
}

// runUnpublished serves one invocation while no generation is published:
// it performs a due reload, admits or rejects a half-open probe, or sends
// the caller to its fallback. settled is false when it found the state
// Healthy — the circuit closed between run's load and this lock — and the
// caller must start over on the published generation.
func (s *Supervisor) runUnpublished(ctx context.Context, cpu int, event any, hctx []byte) (res kflex.Result, settled bool, err error) {
	s.mu.Lock()
	if s.state == Healthy {
		s.mu.Unlock()
		return kflex.Result{}, false, nil
	}
	if s.state == Quarantined && !s.busy && !s.closed && !s.cfg.Tuning.Now().Before(s.reloadAt) {
		s.reloadLocked()
	}
	if s.state != Probing || s.probesInFlight >= s.cfg.Tuning.MaxConcurrentProbes {
		// Quarantined (backoff running, a sibling's reload in flight, or the
		// reload failed), Migrating (the source handle is frozen mid-cutover)
		// or the half-open probe quota is taken: the caller serves on its
		// user-space fallback, whose writes land in the dirty set a warm
		// generation replays.
		err = &OpenError{Ext: s.name(), State: s.state}
		s.mu.Unlock()
		return kflex.Result{}, true, err
	}
	s.probesInFlight++
	g, slot := s.cur, &s.cpus[cpu]
	// Raised under mu: a probe still running when the circuit closes must
	// be visible to the drain of a migration admitted right after.
	slot.inflight.Add(1)
	s.mu.Unlock()
	res, err = invoke(ctx, g.Handles[cpu], event, hctx)
	slot.inflight.Add(-1) // before settling, as in run: a failed probe drains
	s.settleProbe(g.Gen, res, err)
	return res, true, err
}

// retiredOutcome reports whether an invocation outcome shows that this
// generation's extension is retired, whatever policy retired it: the runtime
// already returns the fallback error, or this run was cancelled and the
// extension is unloaded (its own cancellation reached the threshold, or a
// sibling's did and its retirement reached this one).
func retiredOutcome(res kflex.Result, err error, h *kflex.Handle) bool {
	if err != nil {
		return errors.Is(err, kflex.ErrFallback)
	}
	return res.Cancelled != kflex.CancelNone && h.Extension().Unloaded()
}

// quarantineOn quarantines generation gen, which reached its cancel
// threshold, if it is still the live, Healthy generation; stale outcomes
// from a previous generation are ignored so an in-flight run on an old heap
// can't re-open a circuit the supervisor already cycled.
func (s *Supervisor) quarantineOn(gen uint64) {
	s.mu.Lock()
	if gen != s.cur.Gen || s.state != Healthy {
		s.mu.Unlock()
		return
	}
	s.record(Healthy, Degraded, "cancel threshold")
	s.quarantineUnlock("heap quarantined after cancel threshold")
}

// settleProbe accounts the outcome of one half-open probe.
func (s *Supervisor) settleProbe(gen uint64, res kflex.Result, err error) {
	probeOK := err == nil && res.Cancelled == kflex.CancelNone
	s.mu.Lock()
	s.probesInFlight--
	if gen != s.cur.Gen || s.state != Probing {
		s.mu.Unlock()
		return
	}
	if !probeOK {
		s.record(Probing, Quarantined, "probe failed")
		s.quarantineUnlock("probe failed")
		return
	}
	s.probeLeft--
	if s.probeLeft <= 0 {
		s.tier = 0
		s.record(Probing, Healthy, "probes succeeded")
		s.state = Healthy
		s.live.Store(s.cur)
	}
	s.mu.Unlock()
}

// backoffLocked schedules the next reload min(Base<<tier, Max) from now, with
// deterministic jitter in [d/2, d] drawn from the seeded source, and moves to
// the next tier.
func (s *Supervisor) backoffLocked() {
	d := s.cfg.Tuning.BackoffBase << s.tier
	if d <= 0 || d > s.cfg.Tuning.BackoffMax {
		d = s.cfg.Tuning.BackoffMax
	}
	s.reloadAt = s.cfg.Tuning.Now().Add(d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1)))
	s.tier++
}

func (s *Supervisor) record(from, to State, reason string) {
	s.trace.push(Transition{From: from, To: to, Reason: reason, Gen: s.cur.Gen, Tier: s.tier})
	s.stats.Transitions++
}

func (s *Supervisor) name() string { return s.cfg.Spec.Name }

// State returns the current lifecycle state.
func (s *Supervisor) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Extension returns the live generation (callers must tolerate it being
// retired concurrently).
func (s *Supervisor) Extension() *kflex.Extension {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Ext
}

// Gen returns the live generation number (0 for the initial load).
func (s *Supervisor) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur.Gen
}

// Stats returns a copy of the cumulative lifecycle counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Quarantine manually retires the live generation — the operator's (and
// the recovery benchmark's) way to force a full audit/teardown/reload
// cycle without waiting for organic degradation. It reports whether the
// extension was Healthy and is now Quarantined; in any other state it
// does nothing. Like every quarantine it returns once the generation's
// in-flight invocations have unwound and its heap has been audited.
func (s *Supervisor) Quarantine(reason string) bool {
	s.mu.Lock()
	if s.state != Healthy {
		s.mu.Unlock()
		return false
	}
	s.record(Healthy, Degraded, reason)
	s.quarantineUnlock(reason)
	return true
}

// Trace returns a copy of the recorded transition trace — the newest
// traceDepth (256) entries, oldest-first. Stats().Transitions keeps the
// lifetime count.
func (s *Supervisor) Trace() []Transition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trace.snapshot()
}

// Audits returns a copy of the retained quarantine and migration audit
// reports — the newest auditDepth (64) entries, oldest-first.
// Stats().AuditsTotal keeps the lifetime count.
func (s *Supervisor) Audits() []AuditReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.audits.snapshot()
}

// Close is the terminal transition: it waits out a transition in flight,
// unpublishes and retires the current generation and releases its
// resources. The state stays Quarantined with no reload ever due, so every
// later Run gets an *OpenError. Idempotent.
func (s *Supervisor) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.busy { // polled at the drain's period: Close is rare
		s.mu.Unlock()
		time.Sleep(20 * time.Microsecond)
		s.mu.Lock()
	}
	if s.closed {
		return
	}
	s.closed = true
	if s.state != Quarantined {
		s.live.Store(nil)
		s.record(s.state, Quarantined, "closed")
		s.state = Quarantined
	}
	s.discard(s.cur)
}
