// Package locks implements KFlex's queue-based spin locks (§3.1 of the
// paper) and the time-slice extension protocol that makes sharing them with
// user space safe (§3.4, §4.4).
//
// The lock is a ticket lock living in extension-heap memory: a strict-FIFO
// queue discipline like the paper's MCS lock (the MCS per-waiter queue-node
// locality optimization is immaterial under simulation). The lock word is
// one 8-byte heap word — next-ticket in the high half, owner in the low
// half — so the extension and user-space mappings of the heap synchronize
// through the same memory, exactly as the paper's shared heaps do.
package locks

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"kflex/internal/faultinject"
	"kflex/internal/heap"
)

// Locks provides queue-based spin locks on the words of one heap mapping
// (§3.1); the spin-lock helpers use the one over the extension view.
type Locks struct {
	view heap.View

	// fault, when non-nil, injects contention delays and abandoned
	// acquisitions (chaos testing); nil in production.
	fault *faultinject.Plan
}

// New returns lock operations over the given heap view (extension or user).
func New(view heap.View) *Locks { return &Locks{view: view} }

// SetFaultPlan attaches a fault-injection plan; nil detaches it. Call
// before the lock operations are shared across goroutines.
func (l *Locks) SetFaultPlan(p *faultinject.Plan) { l.fault = p }

// cancelPollInterval bounds how many spins pass between cancellation polls.
const cancelPollInterval = 64

// Lock acquires the ticket lock at addr (a VA in this view). It returns
// false when inv, the invocation spinning (nil for a user-space thread,
// which nothing cancels), was cancelled meanwhile — the §3.4 path where an
// extension waiting on a lock held by a preempted user thread stalls and is
// cancelled.
func (l *Locks) Lock(addr uint64, inv interface{ Cancelled() bool }) bool {
	// my ticket = fetch-add on the high 32 bits.
	old, err := l.view.AtomicRMW(addr+4, 4, heap.RMWAdd, 1)
	if err != nil {
		return false
	}
	my := uint32(old)
	spins := 0
	for {
		cur, err := l.view.AtomicLoad(addr, 4)
		if err != nil {
			// The fetch-add above already queued ticket my; dropping it
			// on the floor would wedge the lock word (owner never
			// advances past it). Repair before reporting failure.
			l.recoverTicket(addr, my)
			return false
		}
		if uint32(cur) == my {
			return true
		}
		spins++
		if spins == 1 && l.fault != nil {
			key := l.lockOff(addr)
			// LockTimeout abandons the acquisition as if cancelled while
			// spinning; the unlock path repairs the FIFO hole (§3.4).
			if l.fault.Fire(faultinject.LockTimeout, key) {
				l.abandon(addr, my)
				return false
			}
			// LockDelay models a waiter stalled behind a preempted user
			// thread: stop observing the lock word for a while.
			if l.fault.Fire(faultinject.LockDelay, key) {
				for i := 0; i < 4*cancelPollInterval; i++ {
					runtime.Gosched()
				}
			}
		}
		if spins%cancelPollInterval == 0 {
			if inv != nil && inv.Cancelled() {
				// Abandon the ticket: bump owner past us when our
				// turn comes is not possible without holding it, so
				// mark abandonment by waiting for our turn and
				// releasing immediately is also spinning. Instead,
				// the FIFO hole is repaired by the unlock path of
				// the previous holder advancing owner past
				// abandoned tickets recorded here.
				l.abandon(addr, my)
				return false
			}
			runtime.Gosched()
		}
	}
}

// abandon records that ticket my at lock addr will never be claimed; the
// unlock path skips it. This is runtime-side bookkeeping (the real runtime
// repairs its queue likewise when cancelling a waiter), kept on the heap
// the lock lives in so that both mappings of it — and nothing else — see
// the same record.
func (l *Locks) abandon(addr uint64, my uint32) {
	l.view.Heap().Abandoned().Add(l.lockOff(addr), my)
}

// skipAbandoned returns the first ticket at or after owner that still has
// a waiter behind it, consuming the abandoned ones on the way.
func (l *Locks) skipAbandoned(addr uint64, owner uint32) uint32 {
	ab, off := l.view.Heap().Abandoned(), l.lockOff(addr)
	for ab.Remove(off, owner) {
		owner++
	}
	return owner
}

// recoverTicket repairs the queue after an acquisition aborted on a heap
// fault mid-spin. Injection is suspended for the duration — recovery must
// complete, or no acquisition failure could ever leave the lock usable. If
// ticket my had already become the owner (the lock was free when the
// fetch-add queued it), ownership is passed straight on; otherwise the
// ticket is recorded as abandoned so the unlock path skips the FIFO hole.
func (l *Locks) recoverTicket(addr uint64, my uint32) {
	defer l.fault.Suspend()()
	cur, err := l.view.AtomicLoad(addr, 4)
	if err != nil {
		return // heap genuinely gone; nothing left to repair
	}
	if uint32(cur) != my {
		l.abandon(addr, my)
		return
	}
	_ = l.view.AtomicStore(addr, 4, uint64(l.skipAbandoned(addr, my+1)))
}

// Unlock releases the lock at addr.
func (l *Locks) Unlock(addr uint64) error {
	next, err := l.view.AtomicLoad(addr+4, 4)
	if err != nil {
		return err
	}
	cur, err := l.view.AtomicLoad(addr, 4)
	if err != nil {
		return err
	}
	if uint32(cur) == uint32(next) {
		return fmt.Errorf("locks: unlock of lock %#x that is not held", addr)
	}
	// Advance owner, skipping abandoned tickets.
	return l.view.AtomicStore(addr, 4, uint64(l.skipAbandoned(addr, uint32(cur)+1)))
}

// Held reports whether the lock at addr is currently held. Like every
// observer, it runs with fault injection suspended: an injected guard fault
// on the lock-word reads would misreport the lock state.
func (l *Locks) Held(addr uint64) bool {
	defer l.fault.Suspend()()
	next, err1 := l.view.AtomicLoad(addr+4, 4)
	cur, err2 := l.view.AtomicLoad(addr, 4)
	return err1 == nil && err2 == nil && uint32(cur) != uint32(next)
}

// lockOff identifies a lock by its heap offset, the name the extension
// and user views of it have in common.
func (l *Locks) lockOff(addr uint64) uint64 {
	return (addr - l.view.Base()) & l.view.Heap().Mask()
}

// --- Time-slice extension (§3.4, §4.4) ---------------------------------------

// RSeq models the rseq-region critical-section counter (§4.4): user-space
// lock acquire/release increment and decrement it, correctly accounting for
// nested locks.
type RSeq struct {
	cs        atomic.Int32
	preempted atomic.Bool
	// extensions granted and expired, for experiments.
	Granted atomic.Uint64
	Expired atomic.Uint64
}

// Enter marks entry into a critical section (lock acquired).
func (r *RSeq) Enter() { r.cs.Add(1) }

// Leave marks exit from a critical section (lock released).
func (r *RSeq) Leave() {
	if r.cs.Add(-1) < 0 {
		// Internal invariant: Enter/Leave calls are emitted pairwise by
		// the runtime's own lock paths, never from extension input.
		panic("locks: rseq critical-section counter underflow")
	}
}

// InCS reports whether the thread is inside a critical section.
func (r *RSeq) InCS() bool { return r.cs.Load() > 0 }

// Preempted reports whether the scheduler forcibly preempted the thread
// after its grace expired.
func (r *RSeq) Preempted() bool { return r.preempted.Load() }

// RequestPreempt simulates the scheduler wanting to preempt the thread: if
// it is inside a critical section it receives up to grace extra time; if the
// section has not completed by then, the thread is forcibly preempted
// (§4.4) and true is returned.
func (r *RSeq) RequestPreempt(grace time.Duration) (forced bool) {
	if !r.InCS() {
		return false
	}
	r.Granted.Add(1)
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		if !r.InCS() {
			return false // cooperative: finished within the extension
		}
		time.Sleep(grace / 16)
	}
	if r.InCS() {
		r.Expired.Add(1)
		r.preempted.Store(true)
		return true
	}
	return false
}
