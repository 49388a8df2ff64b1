// Package faultinject is a seeded, deterministic fault-injection harness
// for the KFlex runtime. The paper's safety argument (§3.2–§4.3) is that
// extension failures — guard-zone hits, exhausted heaps, stalled loops,
// watchdog cancellations — always unwind through cancellation points and
// object tables back to a consistent kernel; this package manufactures
// those failures on demand so the recovery machinery can be exercised
// systematically instead of waiting for them to occur.
//
// A Plan is attached per runtime (kflex.Spec.FaultPlan) and threaded to
// every failure-prone layer: extension heaps (forced guard-zone faults,
// demand-paging failures), the memory allocator (per-size-class allocation
// failures), the VM (helper-call errors, terminate-probe cancellations at
// chosen cancellation points), spin locks (contention delays, abandoned
// acquisitions), and the watchdog (forced firings).
//
// Injection sites are zero-cost when disabled: each holds a *Plan that is
// nil in production, and the site guards the call with a nil check. A Plan
// is deterministic: a fixed seed and a fixed sequence of Fire calls produce
// the same fault decisions and the same recorded Event trace, making chaos
// runs reproducible bit for bit.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Kind identifies one class of injectable fault.
type Kind uint8

// Injectable fault kinds, one per runtime failure mode the paper's
// recovery machinery must handle.
const (
	// KindNone is the zero value; it never fires.
	KindNone Kind = iota
	// HeapGuard forces a guard-zone (out-of-bounds) fault on a heap
	// access (§3.2: SFI sanitization and the ±32 KiB guard zones).
	HeapGuard
	// HeapPage fails a demand-paging population request (§3.2: heaps are
	// not pre-populated, so class-2 cancellation points exist).
	HeapPage
	// AllocFail makes kflex_malloc return 0 (§4.1: the allocator's
	// exhaustion contract). The fire key is the size class.
	AllocFail
	// HelperErr fails a helper call with ErrInjected (§3: the kernel
	// interface can reject extension requests at runtime). The fire key
	// is the helper ID.
	HelperErr
	// Terminate cancels the invocation at a terminate probe, as a
	// retirement observed there would (§3.3). The fire key is the CP
	// identifier.
	Terminate
	// LockDelay inserts extra contention delay while spinning on a queue
	// lock (§3.4: waiters behind preempted user threads stall).
	LockDelay
	// LockTimeout abandons a lock acquisition as if the extension was
	// cancelled while spinning (§3.4).
	LockTimeout
	// WatchdogFire makes the watchdog treat in-flight invocations as stalled
	// regardless of its elapsed quantum (§4.3).
	WatchdogFire

	// The Store* kinds treat the durable storage layer behind the
	// supervised app stores (internal/durable) as a fault domain of its
	// own — SafeBPF's defense-in-depth framing: the WAL and snapshot
	// engine must recover crash-consistently even when the device lies.

	// StoreWrite fails a WAL/snapshot append outright: no bytes reach the
	// device and the write returns ErrInjected. The fire key is the
	// length of the attempted write.
	StoreWrite
	// StoreShort persists only a prefix of a write and then reports
	// ErrInjected — the classic short write. The fire key is the length
	// of the attempted write.
	StoreShort
	// StoreSync fails an fsync: buffered bytes stay volatile and are lost
	// on crash. The fire key is an opaque per-file identifier.
	StoreSync
	// StoreCorrupt silently flips a byte of a write as it lands on the
	// device (latent sector corruption); the write itself reports
	// success. The fire key is the length of the write.
	StoreCorrupt
	// StoreTorn decides, at crash time, that the unsynced tail of a file
	// is torn: a prefix of the buffered bytes survives the crash instead
	// of none or all of them. The fire key is an opaque per-file
	// identifier.
	StoreTorn

	// The Migrate* kinds fail individual phases of the supervisor's live
	// cross-CPU heap migration so chaos runs can prove every abnormal
	// cutover path rolls back to the un-moved source heap — the same
	// "every failure lands in a provably clean state" discipline the
	// runtime's cancellation machinery enforces. The fire key for all of
	// them is from<<8|to, the logical source CPU and physical target slot.

	// MigrateDrain makes the source handle never quiesce: the drain phase
	// reports a timeout with invocations still in flight.
	MigrateDrain
	// MigrateAudit fails the pre-move heap audit: the frozen heap reports
	// an inconsistency and must not be moved.
	MigrateAudit
	// MigrateAdopt fails the target generation's resync (the Init replay
	// of the dirty set through the handles on the new route).
	MigrateAdopt
	// MigratePublish makes the cutover lose its publish race: the new
	// handle cannot be installed and the source must be restored.
	MigratePublish

	numKinds
)

// String names the kind for traces and test output.
func (k Kind) String() string {
	switch k {
	case HeapGuard:
		return "heap-guard"
	case HeapPage:
		return "heap-page"
	case AllocFail:
		return "alloc-fail"
	case HelperErr:
		return "helper-err"
	case Terminate:
		return "terminate"
	case LockDelay:
		return "lock-delay"
	case LockTimeout:
		return "lock-timeout"
	case WatchdogFire:
		return "watchdog-fire"
	case StoreWrite:
		return "store-write"
	case StoreShort:
		return "store-short"
	case StoreSync:
		return "store-sync"
	case StoreCorrupt:
		return "store-corrupt"
	case StoreTorn:
		return "store-torn"
	case MigrateDrain:
		return "migrate-drain"
	case MigrateAudit:
		return "migrate-audit"
	case MigrateAdopt:
		return "migrate-adopt"
	case MigratePublish:
		return "migrate-publish"
	}
	return "none"
}

// ErrInjected marks an error manufactured by a fault plan; recovery code
// can distinguish it from organic failures in assertions.
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// Event records one injected fault, in injection order.
type Event struct {
	// Seq is the global occurrence index (across all kinds) at which the
	// fault fired.
	Seq uint64
	// Kind is the fault class.
	Kind Kind
	// Key is the site-specific discriminator passed to Fire (size class,
	// CP id, helper ID, lock offset, page index...).
	Key uint64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s key=%#x", e.Seq, e.Kind, e.Key)
}

type nthKey struct {
	kind Kind
	key  uint64
}

// Plan decides, deterministically, which runtime operations fail. The zero
// Plan (and a nil *Plan) never fires. All methods are safe for concurrent
// use; determinism of the fault sequence additionally requires the caller
// to serialize the operations that reach Fire, which single-threaded chaos
// drivers do naturally.
type Plan struct {
	enabled atomic.Bool
	// suspended counts the open Suspend brackets; Fire is false while it
	// is non-zero.
	suspended atomic.Int32

	mu       sync.Mutex
	rng      *rand.Rand
	rate     [numKinds]float64
	nth      map[nthKey][]uint64 // remaining occurrence counts that fire
	count    map[nthKey]uint64   // occurrences seen per (kind,key)
	seq      uint64              // total Fire calls while enabled
	injected uint64
	events   []Event
}

// NewPlan returns a disabled plan seeded with seed. Configure rates and
// triggers, attach it to a runtime, then call Enable once setup traffic
// (preload, init) is done.
func NewPlan(seed int64) *Plan {
	return &Plan{
		rng:   rand.New(rand.NewSource(seed)),
		nth:   make(map[nthKey][]uint64),
		count: make(map[nthKey]uint64),
	}
}

// SetRate makes a fraction rate (0..1) of kind's occurrences fire,
// decided by the plan's seeded RNG.
func (p *Plan) SetRate(kind Kind, rate float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rate[kind] = rate
	return p
}

// AnyKey, as FailNth's key, arms a trigger on a kind's occurrences at every
// key: the n-th occurrence of the kind while it is armed fires, wherever it
// falls. A sweep of n cancels at each site a run reaches in turn, without
// knowing their keys.
const AnyKey = ^uint64(0)

// FailNth arms a one-shot trigger: the n-th occurrence (1-based) of kind
// at the given key (or at any, AnyKey) fires. Multiple triggers may be
// armed per (kind, key).
func (p *Plan) FailNth(kind Kind, key uint64, n uint64) *Plan {
	if n == 0 {
		n = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := nthKey{kind, key}
	p.nth[k] = append(p.nth[k], n)
	return p
}

// Enable arms the plan. Sites consult it only while enabled, so setup
// traffic (preloads, control frames) runs fault-free.
func (p *Plan) Enable() { p.enabled.Store(true) }

// Disarm disarms the plan without losing its trace. Enable and Disarm are
// the test's switch: runtime code never touches it, and shields what must
// not be injected into with Suspend.
func (p *Plan) Disarm() { p.enabled.Store(false) }

// Suspend shields recovery and observation from injection: until the
// returned resume runs, Fire reports false and consumes no occurrence, so
// the seeded trace is the one the unshielded sites alone would produce.
// Brackets nest and overlap — two CPUs unwinding together, an audit that
// calls a shielded observer — and injection resumes when the last one
// closes. A nil plan is safe.
func (p *Plan) Suspend() (resume func()) {
	if p == nil {
		return func() {}
	}
	p.suspended.Add(1)
	return p.resume
}

func (p *Plan) resume() { p.suspended.Add(-1) }

// Fire is called at an injection site each time the fault of the given
// kind could occur; key discriminates the site (size class, CP id, helper
// ID...). It reports whether the site must fail. Nil plans never fire.
func (p *Plan) Fire(kind Kind, key uint64) bool {
	if p == nil || !p.enabled.Load() || p.suspended.Load() != 0 {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	fire := p.countNth(nthKey{kind, key})
	if wild := (nthKey{kind, AnyKey}); p.nth[wild] != nil && p.countNth(wild) {
		fire = true
	}
	if !fire && p.rate[kind] > 0 && p.rng.Float64() < p.rate[kind] {
		fire = true
	}
	if fire {
		p.injected++
		p.events = append(p.events, Event{Seq: p.seq, Kind: kind, Key: key})
	}
	return fire
}

// countNth counts one occurrence at k and reports whether a trigger armed
// for it fires, disarming that trigger. Caller holds p.mu.
func (p *Plan) countNth(k nthKey) bool {
	p.count[k]++
	pending := p.nth[k]
	if len(pending) == 0 {
		return false
	}
	fire := false
	kept := pending[:0]
	for _, n := range pending {
		if n == p.count[k] {
			fire = true
		} else {
			kept = append(kept, n)
		}
	}
	if len(kept) == 0 {
		delete(p.nth, k)
	} else {
		p.nth[k] = kept
	}
	return fire
}

// Injected returns how many faults have fired so far.
func (p *Plan) Injected() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.injected
}

// Events returns a copy of the injected-fault trace, in firing order.
// Two runs with the same seed and the same operation sequence produce
// identical traces — the reproducibility contract chaos tests assert.
func (p *Plan) Events() []Event {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}
