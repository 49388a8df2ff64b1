package redis

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"kflex"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// TestConcurrentDegradation hammers Handle.Run from many goroutines while
// deterministic helper faults push cancellations across the threshold:
// the extension must retire exactly once (no double-unload), every
// request must complete (served, cancelled, or refused with a
// fallback-able error — zero lost), and once retired every refusal must
// be the typed error matching the fallback sentinel. Run under -race by the Makefile's race
// target, mirroring the PR 2 watchdog Start/Stop regression test.
func TestConcurrentDegradation(t *testing.T) {
	const goroutines = 8
	const requests = 40
	// Every helper call fails: each invocation that executes is cancelled.
	plan := faultinject.NewPlan(31).SetRate(faultinject.HelperErr, 1.0)
	cfg := DefaultConfig(workload.Mix{GetPct: 100})
	cfg.Preload = false
	cfg.FaultPlan = plan
	cfg.CancelThreshold = 3
	k, err := NewKFlex(cfg, goroutines)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Close)
	plan.Enable()
	defer plan.Disarm()

	var served, cancelled, refused, lost atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns its handle, packet, and ctx buffer: the
			// per-cpu contract of Extension.Handle.
			h := k.Ext().Handle(g)
			ctx := make([]byte, kernel.HookSkSkb.CtxSize)
			for i := 0; i < requests; i++ {
				key := workload.FormatKey(uint64(g*requests+i+1), KeySize)
				frame := EncodeCommand([]byte("GET"), key)
				pkt := &netsim.Packet{Data: frame}
				binary.LittleEndian.PutUint32(ctx[0:], uint32(len(frame)))
				res, err := h.Run(pkt, ctx)
				switch {
				case err == nil && res.Cancelled == kflex.CancelNone:
					served.Add(1)
				case err == nil:
					cancelled.Add(1)
				case errors.Is(err, kflex.ErrFallback):
					// Retired, before this Run or while it raced the
					// unload: the caller's user-space path serves the
					// request.
					refused.Add(1)
				default:
					lost.Add(1)
					t.Errorf("worker %d request %d: unexpected error %v", g, i, err)
				}
			}
		}()
	}
	wg.Wait()

	if total := served.Load() + cancelled.Load() + refused.Load(); total != goroutines*requests {
		t.Fatalf("requests accounted = %d, want %d (lost %d)", total, goroutines*requests, lost.Load())
	}
	ext := k.Ext()
	if !ext.Unloaded() || ext.Cancels() < cfg.CancelThreshold {
		t.Fatalf("unloaded = %v after %d cancellations (threshold %d)",
			ext.Unloaded(), ext.Cancels(), cfg.CancelThreshold)
	}
	if ext.Unload() {
		t.Fatal("Unload transitioned again after the threshold retired the extension (double-unload)")
	}
	if refused.Load() == 0 {
		t.Fatal("no request landed on the fallback path after degradation")
	}
	// Post-degradation, every goroutine's next request refuses with the
	// typed error that matches the sentinel.
	for g := 0; g < goroutines; g++ {
		frame := EncodeCommand([]byte("GET"), workload.FormatKey(1, KeySize))
		pkt := &netsim.Packet{Data: frame}
		ctx := make([]byte, kernel.HookSkSkb.CtxSize)
		binary.LittleEndian.PutUint32(ctx[0:], uint32(len(frame)))
		_, err := k.Ext().Handle(g).Run(pkt, ctx)
		var de *kflex.DegradedError
		if !errors.As(err, &de) || de.Ext != "kflex-redis" {
			t.Fatalf("worker %d post-degradation error = %v, want *DegradedError", g, err)
		}
		if !errors.Is(err, kflex.ErrFallback) {
			t.Fatalf("typed error does not match ErrFallback: %v", err)
		}
	}
}
