package alloc

import (
	"sync"
	"testing"

	"kflex/internal/heap"
)

// TestCrossCPUFree allocates on CPU 0 and frees on CPU 1 concurrently:
// block ownership travels with the pointer, the freeing CPU's magazine
// absorbs the block, and overflow spills through the depot back to the
// allocating side. Run under -race this proves the cross-CPU path is
// data-race-free while both fast paths stay lock-free.
func TestCrossCPUFree(t *testing.T) {
	h, err := heap.New(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	a := New(h, 2)
	a.EnableTracking()
	const rounds = 2000
	addrs := make(chan uint64, 64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // CPU 0: allocator
		defer wg.Done()
		defer close(addrs)
		for i := 0; i < rounds; i++ {
			addr := a.Malloc(0, uint64(16+i%100))
			if addr == 0 {
				t.Error("heap exhausted mid-test")
				return
			}
			addrs <- addr
		}
	}()
	go func() { // CPU 1: freer
		defer wg.Done()
		for addr := range addrs {
			if err := a.Free(1, addr); err != nil {
				t.Errorf("cross-CPU free: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	st := a.Stats()
	if st.Allocs != rounds || st.Frees != rounds {
		t.Fatalf("stats = %+v, want %d allocs and frees", st, rounds)
	}
	// Quiescent now: accounting must balance exactly.
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAuditDuringTraffic runs CheckConsistency and Stats from an
// observer goroutine while a CPU allocates and frees at full rate — the
// supervisor's mid-traffic quarantine audit. The audit may observe a
// transient imbalance but must be race-free; tracking stays off so the
// balance check is not asserted mid-flight.
func TestConcurrentAuditDuringTraffic(t *testing.T) {
	h, err := heap.New(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	a := New(h, 2)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // CPU 0: traffic
		defer wg.Done()
		var held []uint64
		for i := 0; i < 5000; i++ {
			if addr := a.Malloc(0, 64); addr != 0 {
				held = append(held, addr)
			}
			if len(held) > 32 {
				if err := a.Free(0, held[0]); err != nil {
					t.Errorf("free: %v", err)
					return
				}
				held = held[1:]
			}
		}
		for _, addr := range held {
			if err := a.Free(0, addr); err != nil {
				t.Errorf("drain free: %v", err)
				return
			}
		}
		close(done)
	}()
	go func() { // observer: the quarantine audit
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = a.Stats()
			_ = a.ExpectedPopulatedPages()
			// Without tracking the audit only checks structure (headers,
			// duplicates); errors here would be real corruption.
			if err := a.CheckConsistency(); err != nil {
				t.Errorf("mid-traffic audit: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestConcurrentAuditWhileCarving is the regression test for an audit that
// snapshotted bump before it read the lock-free magazines: a run carved in
// between put blocks in a magazine beyond the snapshotted bump, and the audit
// reported "free block outside carved region" — corruption that is not there.
// Nothing is freed, so 1 KiB blocks come 15 to a run and every 15th Malloc
// carves, all the way to exhaustion of a 64 MiB heap.
func TestConcurrentAuditWhileCarving(t *testing.T) {
	h, err := heap.New(1 << 26)
	if err != nil {
		t.Fatal(err)
	}
	a := New(h, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a.Malloc(0, 1024) != 0 {
		}
	}()
	for audits := 0; ; audits++ {
		select {
		case <-done:
			if audits == 0 {
				t.Skip("the heap was exhausted before the first audit")
			}
			return
		default:
		}
		if err := a.CheckConsistency(); err != nil {
			t.Fatalf("audit %d under carving traffic: %v", audits, err)
		}
	}
}
