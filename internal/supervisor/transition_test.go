package supervisor_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"kflex"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
)

// settledGoroutines polls until the goroutine count is back to at most base
// (a stopped watchdog's goroutine takes a moment to exit) and returns the
// last count read.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestDiscardDispositions drives each transition into an Init failure and
// checks what became of the extension the failed generation ran on: a cold
// one and a revived one are discarded, heap closed; a migration's is the
// live source's and stays open — and whatever is discarded takes its
// watchdog with it.
func TestDiscardDispositions(t *testing.T) {
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	type env struct {
		sup    *supervisor.Supervisor
		clk    *clock
		base   int        // the goroutine count before New
		failed *heap.Heap // the heap of the generation whose Init failed
		h0     *heap.Heap // generation 0's heap
	}
	// reload quarantines and drives the due reload.
	reload := func(e *env) error {
		e.sup.Quarantine("maintenance")
		e.clk.Advance(time.Hour)
		_, err := e.sup.Run(0, nil, ctx)
		return err
	}
	heapless := trivialSpec()
	heapless.Mode, heapless.HeapSize = kflex.ModeEBPF, 0
	rows := []struct {
		name    string
		spec    kflex.Spec
		warm    bool                                   // Config.WarmReload
		fail    func(g supervisor.Generation) bool     // the one Init to fail
		attempt func(t *testing.T, e *env)             // runs the transition, checks its outcome
		closed  func(e *env) (h *heap.Heap, want bool) // heap to inspect afterwards
	}{
		{
			name: "cold", spec: trivialSpec(), warm: false,
			fail: func(g supervisor.Generation) bool { return g.Gen == 1 },
			attempt: func(t *testing.T, e *env) {
				if err := reload(e); !errors.Is(err, kflex.ErrFallback) {
					t.Fatalf("Run across the failed reload = %v, want a fallback", err)
				}
				if st := e.sup.Stats(); st.ReloadFailures != 1 || st.Reloads != 0 {
					t.Fatalf("stats = %+v, want one failed reload", st)
				}
			},
			closed: func(e *env) (*heap.Heap, bool) { return e.failed, true },
		},
		{
			name: "warm", spec: trivialSpec(), warm: true,
			fail: func(g supervisor.Generation) bool { return g.Warm },
			attempt: func(t *testing.T, e *env) {
				if err := reload(e); err != nil {
					t.Fatalf("Run across the reload = %v, want the cold retry's probe served", err)
				}
				st := e.sup.Stats()
				if st.Reloads != 1 || st.ReloadFailures != 0 || st.WarmReloads != 0 || !st.LastInit.FullResync {
					t.Fatalf("stats = %+v, want one reload that went cold within the same attempt", st)
				}
				if e.failed != e.h0 || e.sup.Extension().Heap() == e.h0 {
					t.Fatal("the warm attempt did not revive generation 0's heap, or the retry reused it")
				}
			},
			closed: func(e *env) (*heap.Heap, bool) { return e.h0, true },
		},
		{
			// A quarantine keeps only an extension that has a heap: this
			// one is discarded at once, its watchdog with it, and the
			// reload is cold.
			name: "heapless", spec: heapless, warm: true,
			fail: func(g supervisor.Generation) bool { return g.Gen == 1 },
			attempt: func(t *testing.T, e *env) {
				e.sup.Quarantine("maintenance")
				if n := settledGoroutines(e.base); n > e.base {
					t.Errorf("goroutines = %d after the quarantine, want %d: the heapless extension was kept", n, e.base)
				}
				e.clk.Advance(time.Hour)
				if _, err := e.sup.Run(0, nil, ctx); !errors.Is(err, kflex.ErrFallback) {
					t.Fatalf("Run across the failed reload = %v, want a fallback", err)
				}
				if st := e.sup.Stats(); st.ReloadFailures != 1 || st.WarmReloads != 0 {
					t.Fatalf("stats = %+v, want one failed cold reload", st)
				}
			},
			closed: func(e *env) (*heap.Heap, bool) { return nil, false },
		},
		{
			name: "migrate", spec: trivialSpec(), warm: false,
			fail: func(g supervisor.Generation) bool { return g.Warm },
			attempt: func(t *testing.T, e *env) {
				rep, err := e.sup.Migrate(0, 3)
				var me *supervisor.MigrateError
				if !errors.As(err, &me) || me.Phase != supervisor.PhaseAdopt || !rep.RolledBack {
					t.Fatalf("Migrate = (%+v, %v), want a rollback at the adopt phase", rep, err)
				}
				if e.failed != e.h0 || e.sup.Extension().Heap() != e.h0 {
					t.Fatal("the target did not borrow the source's heap, or the rollback lost it")
				}
				if res, err := e.sup.Run(0, nil, ctx); err != nil || res.Ret != kernel.XDPPass {
					t.Fatalf("source Run after the rollback = (%v, %v)", res.Ret, err)
				}
			},
			closed: func(e *env) (*heap.Heap, bool) { return e.h0, false },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := &env{clk: &clock{now: time.Unix(0, 0)}, base: base}
			failedOnce := false
			sup, err := supervisor.New(supervisor.Config{
				Runtime: kflex.NewRuntime(), Spec: row.spec, NumCPUs: 2, WarmReload: row.warm,
				Init: func(g supervisor.Generation) (supervisor.InitReport, error) {
					if !failedOnce && row.fail(g) {
						failedOnce, e.failed = true, g.Ext.Heap()
						return supervisor.InitReport{}, errors.New("resync exploded")
					}
					return supervisor.InitReport{FullResync: !g.Warm}, nil
				},
				Tuning: supervisor.Tuning{Now: e.clk.Now, WatchdogQuantum: time.Second},
			})
			if err != nil {
				t.Fatal(err)
			}
			e.sup, e.h0 = sup, sup.Extension().Heap()
			// live is the goroutine count with exactly one generation loaded:
			// its watchdog.
			live := runtime.NumGoroutine()
			row.attempt(t, e)
			if !failedOnce {
				t.Fatal("the Init failure was never reached")
			}
			if h, want := row.closed(e); h != nil && h.Closed() != want {
				t.Errorf("heap closed = %v after the failed attempt, want %v", h.Closed(), want)
			}
			// At most one generation is loaded now; the discarded one must
			// have taken its watchdog with it.
			if n := settledGoroutines(live); n > live {
				t.Errorf("goroutines = %d after the attempt, want at most %d: the discarded generation's watchdog outlived it", n, live)
			}
			sup.Close()
			if n := settledGoroutines(base); n > base {
				t.Errorf("goroutines = %d after Close, want %d", n, base)
			}
		})
	}
}

// TestCloseIsTerminal: a closed supervisor stays closed. The parent's next
// Run found the unloaded extension, quarantined it and — once the backoff
// passed — reloaded generation 1 with a fresh heap, a second Init and a new
// watchdog goroutine that nothing would ever stop.
func TestCloseIsTerminal(t *testing.T) {
	base := runtime.NumGoroutine()
	clk := &clock{now: time.Unix(0, 0)}
	inits := 0
	sup, err := supervisor.New(supervisor.Config{
		Runtime: kflex.NewRuntime(), Spec: trivialSpec(),
		Init: func(supervisor.Generation) (supervisor.InitReport, error) {
			inits++
			return supervisor.InitReport{}, nil
		},
		Tuning: supervisor.Tuning{Now: clk.Now, WatchdogQuantum: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	sup.Close()
	sup.Close() // idempotent
	if n := settledGoroutines(base); n > base {
		t.Fatalf("goroutines = %d after Close, want %d", n, base)
	}
	ctx := make([]byte, kflex.HookXDP.CtxSize)
	for i := 0; i < 20; i++ {
		clk.Advance(time.Hour) // any backoff has expired
		if _, err := sup.Run(0, nil, ctx); !errors.Is(err, kflex.ErrFallback) {
			t.Fatalf("Run %d after Close = %v, want an error matching ErrFallback", i, err)
		}
	}
	if s := sup.State(); s != supervisor.Quarantined {
		t.Errorf("state after Close = %v, want quarantined", s)
	}
	if sup.Stats().Reloads != 0 || sup.Gen() != 0 || inits != 1 {
		t.Errorf("reloads=%d gen=%d inits=%d after Close, want 0/0/1: a closed supervisor must not resurrect itself", sup.Stats().Reloads, sup.Gen(), inits)
	}
	if sup.Quarantine("again") {
		t.Error("Quarantine acted on a closed supervisor")
	}
	if _, err := sup.Migrate(0, 3); err == nil {
		t.Error("Migrate admitted on a closed supervisor")
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines = %d after 20 Runs on a closed supervisor, want %d", n, base)
	}
}
