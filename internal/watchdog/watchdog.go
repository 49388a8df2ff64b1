// Package watchdog implements KFlex's passive execution-duration monitoring
// (§4.3 of the paper). The kernel implementation piggybacks on Linux's
// softlockup and hardlockup watchdogs to detect stalled interruptible and
// non-interruptible extensions, plus a background task for sleepable ones;
// here a single background goroutine polls in-flight invocations and, when
// one exceeds its quantum, asks that invocation — by execution context and
// sequence word, never the program — to cancel, so it unwinds at its next
// cancellation point. Whether a completed cancellation also retires the
// extension is the program's policy (vm.Options.CancelThreshold), not the
// watchdog's.
//
// The watchdog keeps the time; an invocation does not. Each execution
// context publishes only an invocation-sequence word (vm.Exec.Invocation,
// odd while in flight). A scan remembers, per context, the word it saw and
// when it first saw it, and fires once the same odd word has been in flight
// for longer than the quantum. An invocation is first seen at most one
// interval after it starts and is checked once per interval after that, so
// a stall is cancelled within quantum + 2·interval of its start (the
// kernel's lockup detectors have the same sampled shape, §4.3); back-to-back
// short invocations show a different word at every scan and are never
// mistaken for one long one.
package watchdog

import (
	"sync"
	"sync/atomic"
	"time"

	"kflex/internal/faultinject"
	"kflex/internal/vm"
)

// watched is one monitored execution context and the scan's memory of it:
// the in-flight sequence word last seen and when it was first seen.
type watched struct {
	exec  *vm.Exec
	seq   uint64
	since time.Time
}

// Watchdog monitors one extension's execution contexts — a set fixed at
// construction, as the extension's per-CPU table is fixed at Load — for
// stalls. Start and Stop are safe to call concurrently with each other and
// with the poller; Stop is idempotent.
type Watchdog struct {
	quantum  time.Duration
	interval time.Duration

	mu    sync.Mutex // guards the scan state in execs, stop, done
	execs []watched
	stop  chan struct{} // non-nil while a poller is running
	done  chan struct{} // closed by that poller on exit

	fired atomic.Uint64

	// fault, when non-nil, forces firings regardless of elapsed quantum
	// (chaos testing); nil in production.
	fault *faultinject.Plan
}

// New creates a watchdog over execs that cancels invocations running longer
// than quantum, polling every interval. The paper's watchdogs operate at
// second granularity (§4.3, with sub-second sampling left as future work);
// tests use shorter quanta.
func New(quantum, interval time.Duration, execs []*vm.Exec) *Watchdog {
	w := &Watchdog{quantum: quantum, interval: interval, execs: make([]watched, len(execs))}
	for i, e := range execs {
		w.execs[i].exec = e
	}
	return w
}

// SetFaultPlan attaches a fault-injection plan; nil detaches it. Call
// before Start.
func (w *Watchdog) SetFaultPlan(p *faultinject.Plan) { w.fault = p }

// Fired returns how many cancel requests the watchdog made.
func (w *Watchdog) Fired() int { return int(w.fired.Load()) }

// Start launches the monitoring goroutine; a second Start while one is
// running is a no-op.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.stop, w.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(w.interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				w.scan(now)
			}
		}
	}()
}

// Stop halts monitoring and waits for the poller to exit. Idempotent, and
// safe against a concurrent Start: each poller has its own done channel, so
// Stop waits only for the instance it shut down.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// scan is one poll, at time now. It runs under mu: the per-context memory
// lives in execs, and a Stop/Start churn can briefly overlap two pollers.
func (w *Watchdog) scan(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Forced firing (one draw per scan) treats every in-flight invocation as
	// stalled regardless of its elapsed quantum; an idle context is never
	// cancelled.
	forced := w.fault != nil && w.fault.Fire(faultinject.WatchdogFire, 0)
	for i := range w.execs {
		e := &w.execs[i]
		seq, inFlight := e.exec.Invocation()
		if !inFlight {
			continue
		}
		if seq != e.seq {
			// First sight of this invocation: its clock starts here.
			// (No reset when idle: sequence words never repeat, and
			// the zero value is even, so a remembered word can only
			// ever match the invocation it was read from.)
			e.seq, e.since = seq, now
		}
		if forced || now.Sub(e.since) > w.quantum {
			// Stall detected: ask this invocation, and no other, to cancel.
			// It faults at its next C1 probe (or abandons a lock spin) and
			// unwinds (§3.3); had it returned meanwhile, the request names
			// a word no later invocation runs under.
			e.exec.RequestCancel(seq)
			w.fired.Add(1)
		}
	}
}
