// Chaos suite: drives the offloaded Memcached and Redis servers under
// seeded, randomized fault plans (internal/faultinject) and asserts the
// recovery invariants the paper's cancellation design guarantees (§3.3,
// §4.3): after any injected fault the extension heap has no leaked pages,
// no spin lock stays held, and the allocator loses no blocks. The plans
// are deterministic — the same seed produces the same fault sequence and
// the same invariant results — so a failing seed is a reproducible bug
// report, not a flake.
package kflex_test

import (
	"errors"
	"reflect"
	"testing"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/faultinject"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// chaosPlan builds the randomized fault mix. Rates are per fire-site probe:
// HeapGuard sees every memory access, Terminate every cancellation probe,
// HelperErr every helper call, AllocFail every class allocation, HeapPage
// every (rare) page-populate call — so the per-site rates below yield a
// stream where some requests fault and plenty still succeed.
func chaosPlan(seed int64) *faultinject.Plan {
	return faultinject.NewPlan(seed).
		SetRate(faultinject.HeapGuard, 0.0005).
		SetRate(faultinject.HeapPage, 0.2).
		SetRate(faultinject.AllocFail, 0.05).
		SetRate(faultinject.HelperErr, 0.002).
		SetRate(faultinject.Terminate, 0.0005)
}

// checkInvariants asserts the post-recovery state the paper guarantees.
func checkInvariants(t *testing.T, ext *kflex.Extension, lockAddrs ...uint64) {
	t.Helper()
	// No leaked heap pages: page 0 holds the globals; every other
	// populated page was handed out by the allocator's bump region.
	want := ext.Alloc().ExpectedPopulatedPages()
	if got := ext.Heap().PopulatedPages(); got != want {
		t.Errorf("populated pages = %d, want %d (pages leaked or lost)", got, want)
	}
	// The charge counter must agree with a recount of the per-page flags.
	if got, mapped := ext.Heap().PopulatedPages(), ext.Heap().MappedPages(); got != mapped {
		t.Errorf("populated-page counter = %d but %d pages mapped (accounting drift)", got, mapped)
	}
	// No lock abandoned by a cancelled invocation.
	for _, a := range lockAddrs {
		if ext.ExtLocks().Held(a) {
			t.Errorf("spin lock %#x still held after recovery", a)
		}
	}
	// No allocator block lost: carved == free + live for every class.
	if err := ext.Alloc().CheckConsistency(); err != nil {
		t.Errorf("allocator consistency: %v", err)
	}
}

// chaosRequests picks the request count; `go test -short` (the Makefile's
// quick gate) runs a reduced stream.
func chaosRequests() int {
	if testing.Short() {
		return 400
	}
	return 2000
}

// runChaosMemcached builds the lock-protected shared-heap Memcached
// offload, enables the plan, and serves n requests single-threaded
// (single-threading keeps the fault sequence deterministic).
func runChaosMemcached(t *testing.T, seed int64, n int) (*memcached.KFlexMC, *faultinject.Plan) {
	t.Helper()
	plan := chaosPlan(seed)
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Seed = seed
	cfg.Preload = false // keep setup traffic out of the tracked window
	cfg.FaultPlan = plan
	cfg.CancelThreshold = kflex.CancelNever // cancellations stay per-invocation (§4.3)
	mc, err := memcached.NewKFlex(cfg, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	// Track from the first request on; init's bucket table is a huge
	// (page-granular) allocation outside class accounting.
	mc.Ext().Alloc().EnableTracking()
	plan.Enable()
	lockVA := mc.Ext().Heap().ExtBase() + uint64(kvprog.GlobLock)
	last := uint64(0)
	for i := 0; i < n; i++ {
		mc.Serve(0, 0)
		// Invariants must hold immediately after every injected fault,
		// not just at the end of the run.
		if inj := plan.Injected(); inj != last {
			last = inj
			checkInvariants(t, mc.Ext(), lockVA)
			if t.Failed() {
				t.Fatalf("invariant violated after injection %d (seed %d, request %d)", inj, seed, i)
			}
		}
	}
	plan.Disarm()
	return mc, plan
}

func TestChaosMemcached(t *testing.T) {
	for _, seed := range []int64{1, 42, 20240805} {
		seed := seed
		t.Run("", func(t *testing.T) {
			n := chaosRequests()
			mc, plan := runChaosMemcached(t, seed, n)
			if plan.Injected() == 0 {
				t.Fatalf("seed %d injected no faults over %d requests", seed, n)
			}
			if mc.Errors == 0 {
				t.Fatalf("seed %d: no request observed a fault", seed)
			}
			if mc.Errors >= uint64(n) {
				t.Fatalf("seed %d: every request failed (%d/%d); rates too hot to test recovery-then-resume", seed, mc.Errors, n)
			}
			checkInvariants(t, mc.Ext(), mc.Ext().Heap().ExtBase()+uint64(kvprog.GlobLock))
			if mc.Ext().Unloaded() {
				t.Fatal("a CancelNever run unloaded the extension")
			}
		})
	}
}

func TestChaosRedis(t *testing.T) {
	for _, seed := range []int64{3, 7777} {
		seed := seed
		t.Run("", func(t *testing.T) {
			plan := chaosPlan(seed)
			cfg := redis.DefaultConfig(workload.Mix{GetPct: 50})
			cfg.Seed = seed
			cfg.Preload = false
			cfg.FaultPlan = plan
			cfg.CancelThreshold = kflex.CancelNever
			r, err := redis.NewKFlex(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			r.Ext().Alloc().EnableTracking()
			plan.Enable()
			n := chaosRequests()
			last := uint64(0)
			for i := 0; i < n; i++ {
				r.Serve(0, 0)
				if inj := plan.Injected(); inj != last {
					last = inj
					checkInvariants(t, r.Ext())
					if t.Failed() {
						t.Fatalf("invariant violated after injection %d (seed %d, request %d)", inj, seed, i)
					}
				}
			}
			plan.Disarm()
			if plan.Injected() == 0 || r.Errors == 0 {
				t.Fatalf("seed %d: injected=%d errors=%d; chaos exercised nothing", seed, plan.Injected(), r.Errors)
			}
			if r.Errors >= uint64(n) {
				t.Fatalf("seed %d: every request failed", seed)
			}
			checkInvariants(t, r.Ext())
		})
	}
}

// TestChaosDeterminism re-runs the same seed and requires bit-identical
// fault traces and outcomes: the acceptance bar for "same seed, same fault
// sequence, same invariant results".
func TestChaosDeterminism(t *testing.T) {
	const seed, n = 42, 300
	mc1, plan1 := runChaosMemcached(t, seed, n)
	mc2, plan2 := runChaosMemcached(t, seed, n)
	if !reflect.DeepEqual(plan1.Events(), plan2.Events()) {
		t.Fatalf("fault traces diverged for seed %d: %d vs %d events",
			seed, len(plan1.Events()), len(plan2.Events()))
	}
	if mc1.Errors != mc2.Errors || mc1.Fallbacks != mc2.Fallbacks {
		t.Fatalf("outcomes diverged: errors %d/%d, fallbacks %d/%d",
			mc1.Errors, mc2.Errors, mc1.Fallbacks, mc2.Fallbacks)
	}
}

// TestChaosDegradation exercises the graceful-degradation path (§5): once
// cancellations reach Spec.CancelThreshold the runtime unloads the
// extension and Handle.Run refuses with ErrFallback, which the server
// turns into user-space serving (the offload-miss path).
func TestChaosDegradation(t *testing.T) {
	// Every helper call fails: each request is cancelled deterministically.
	plan := faultinject.NewPlan(99).SetRate(faultinject.HelperErr, 1.0)
	cfg := memcached.DefaultConfig(workload.Mix{GetPct: 50})
	cfg.Preload = false
	cfg.FaultPlan = plan
	cfg.CancelThreshold = 3
	mc, err := memcached.NewKFlex(cfg, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	plan.Enable()
	for i := 0; i < 10; i++ {
		mc.Serve(0, 0)
	}
	ext := mc.Ext()
	if !ext.Unloaded() || ext.Cancels() != cfg.CancelThreshold {
		t.Fatalf("unloaded=%v after %d cancellations, want retired at exactly %d",
			ext.Unloaded(), ext.Cancels(), cfg.CancelThreshold)
	}
	if ext.Unload() {
		t.Fatal("Unload transitioned an extension its threshold had already retired")
	}
	if mc.Errors == 0 || mc.Fallbacks == 0 {
		t.Fatalf("server saw errors=%d fallbacks=%d; want both > 0", mc.Errors, mc.Fallbacks)
	}
	// Direct invocations now refuse with the typed fallback error.
	pkt := &netsim.Packet{Data: memcached.EncodeGet(workload.FormatKey(1, memcached.KeySize))}
	_, err = ext.Handle(0).Run(pkt, pkt.XDPCtx(0))
	var de *kflex.DegradedError
	if !errors.Is(err, kflex.ErrFallback) || !errors.As(err, &de) || de.Cancellations != cfg.CancelThreshold {
		t.Fatalf("Handle.Run after degradation = %v, want a *DegradedError matching ErrFallback", err)
	}
}
