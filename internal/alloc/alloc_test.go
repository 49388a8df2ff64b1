package alloc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kflex/internal/faultinject"
	"kflex/internal/heap"
)

func newAlloc(t *testing.T, size uint64, cpus int) (*Allocator, *heap.Heap) {
	t.Helper()
	h, err := heap.New(size)
	if err != nil {
		t.Fatal(err)
	}
	return New(h, cpus), h
}

func TestMallocFreeRoundTrip(t *testing.T) {
	a, h := newAlloc(t, 1<<20, 2)
	addr := a.Malloc(0, 64)
	if addr == 0 {
		t.Fatal("malloc failed")
	}
	if addr < h.ExtBase()+ReservedRegion || addr >= h.ExtBase()+h.Size() {
		t.Fatalf("block %#x outside allocatable heap", addr)
	}
	// The block's pages were populated on demand (§3.2).
	v := h.ExtView()
	if err := v.Store(addr, 8, 0xfeed); err != nil {
		t.Fatalf("fresh block not usable: %v", err)
	}
	if err := a.Free(0, addr); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Allocs != 1 || st.Frees != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReuseAfterFree(t *testing.T) {
	a, _ := newAlloc(t, 1<<20, 1)
	first := a.Malloc(0, 100)
	if err := a.Free(0, first); err != nil {
		t.Fatal(err)
	}
	refills := a.Stats().Refills
	// A free-then-malloc cycle is served from the caches: no new run is
	// carved, and repeating it converges on recycling the same block.
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		addr := a.Malloc(0, 100)
		if addr == 0 {
			t.Fatal("exhausted")
		}
		if seen[addr] {
			break // recycled: done
		}
		seen[addr] = true
		if err := a.Free(0, addr); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().Refills != refills {
		t.Fatalf("free/malloc cycles carved new runs: %d -> %d", refills, a.Stats().Refills)
	}
}

func TestSizeClassesDistinct(t *testing.T) {
	a, _ := newAlloc(t, 1<<22, 1)
	small := a.Malloc(0, 16)
	big := a.Malloc(0, 4096)
	if small == 0 || big == 0 || small == big {
		t.Fatalf("allocations: %#x %#x", small, big)
	}
	// Freeing into one class must not satisfy the other.
	if err := a.Free(0, small); err != nil {
		t.Fatal(err)
	}
	next := a.Malloc(0, 4096)
	if next == small {
		t.Fatal("class confusion")
	}
}

func TestHugeAllocation(t *testing.T) {
	a, h := newAlloc(t, 1<<22, 1)
	addr := a.Malloc(0, 100_000)
	if addr == 0 {
		t.Fatal("huge malloc failed")
	}
	v := h.ExtView()
	if err := v.Store(addr+99_999, 1, 1); err != nil {
		t.Fatalf("huge block end not mapped: %v", err)
	}
	if err := a.Free(0, addr); err != nil {
		t.Fatal(err)
	}
	if a.Stats().HugeAllocs != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestExhaustionReturnsZero(t *testing.T) {
	a, _ := newAlloc(t, heap.MinSize*16, 1) // 64 KiB heap
	var got int
	for i := 0; i < 10_000; i++ {
		if a.Malloc(0, 4096) == 0 {
			break
		}
		got++
	}
	if got == 0 || got >= 10_000 {
		t.Fatalf("exhaustion never hit (got %d)", got)
	}
}

func TestBadFrees(t *testing.T) {
	a, h := newAlloc(t, 1<<20, 1)
	if err := a.Free(0, h.ExtBase()); err == nil {
		t.Error("free of reserved region accepted")
	}
	if err := a.Free(0, h.ExtBase()+h.Size()+100); err == nil {
		t.Error("free outside heap accepted")
	}
	addr := a.Malloc(0, 64)
	if err := a.Free(0, addr+8); err == nil {
		t.Error("free of interior pointer accepted")
	}
}

func TestNoDoubleAllocationQuick(t *testing.T) {
	a, _ := newAlloc(t, 1<<22, 2)
	live := map[uint64]bool{}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if r.Intn(3) != 0 || len(live) == 0 {
				addr := a.Malloc(r.Intn(2), uint64(r.Intn(500)+1))
				if addr == 0 {
					return true // exhausted: acceptable
				}
				if live[addr] {
					return false // double allocation!
				}
				live[addr] = true
			} else {
				for addr := range live {
					if a.Free(r.Intn(2), addr) != nil {
						return false
					}
					delete(live, addr)
					break
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMalloc(t *testing.T) {
	a, _ := newAlloc(t, 1<<24, 4)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				addr := a.Malloc(cpu, 64)
				if addr == 0 {
					t.Error("exhausted unexpectedly")
					return
				}
				mu.Lock()
				if seen[addr] {
					t.Errorf("double allocation of %#x", addr)
				}
				seen[addr] = true
				mu.Unlock()
			}
		}(cpu)
	}
	wg.Wait()
}

// --- Fault-injection failure paths -------------------------------------------

func TestInjectedAllocFailure(t *testing.T) {
	a, _ := newAlloc(t, 1<<22, 1)
	a.EnableTracking()
	class, ok := classFor(64)
	if !ok {
		t.Fatal("64 bytes has no size class")
	}
	plan := faultinject.NewPlan(5).
		FailNth(faultinject.AllocFail, uint64(class), 2).
		FailNth(faultinject.AllocFail, hugeClass, 1)
	a.SetFaultPlan(plan)
	plan.Enable()

	first := a.Malloc(0, 64)
	if first == 0 {
		t.Fatal("first allocation should precede the injected failure")
	}
	if addr := a.Malloc(0, 64); addr != 0 {
		t.Fatalf("second allocation = %#x, want injected failure", addr)
	}
	if a.Malloc(0, 100_000) != 0 {
		t.Fatal("huge allocation should fail on the first injected attempt")
	}
	// One-shot triggers are spent: allocation resumes.
	third := a.Malloc(0, 64)
	if third == 0 {
		t.Fatal("allocation did not resume after the injected failures")
	}
	if err := a.Free(0, first); err != nil {
		t.Fatal(err)
	}
	// Failed allocations must not disturb accounting.
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if plan.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", plan.Injected())
	}
}

func TestExhaustionConsistency(t *testing.T) {
	a, _ := newAlloc(t, heap.MinSize*16, 1) // 64 KiB heap
	a.EnableTracking()
	var live []uint64
	for i := 0; i < 10_000; i++ {
		addr := a.Malloc(0, 2048)
		if addr == 0 {
			break
		}
		live = append(live, addr)
	}
	if len(live) == 0 {
		t.Fatal("no allocation succeeded")
	}
	// Genuine exhaustion: carved == free + live must still balance.
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after exhaustion: %v", err)
	}
	for _, addr := range live {
		if err := a.Free(0, addr); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("after draining: %v", err)
	}
}

func TestInjectedPopulateFailureDuringRefill(t *testing.T) {
	a, _ := newAlloc(t, 1<<20, 1)
	a.EnableTracking()
	plan := faultinject.NewPlan(7).SetRate(faultinject.HeapPage, 1.0)
	a.h.SetFaultPlan(plan)
	plan.Enable()
	// Every page populate fails: carving a fresh run is impossible.
	if addr := a.Malloc(0, 64); addr != 0 {
		t.Fatalf("malloc = %#x, want 0 under total populate failure", addr)
	}
	plan.Disarm()
	if addr := a.Malloc(0, 64); addr == 0 {
		t.Fatal("allocation did not recover once populate failures stopped")
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRetireCPUSpillsMagazines proves retiring a handle slot returns every
// block cached in its magazines to the global depot, where a
// different CPU's refill can reach them — no block is stranded on a dead
// CPU, and the accounting audit still balances.
func TestRetireCPUSpillsMagazines(t *testing.T) {
	a, _ := newAlloc(t, 1<<20, 4)
	a.EnableTracking()
	// Fill CPU 2's magazine for one class by allocating and freeing.
	var addrs []uint64
	for i := 0; i < 32; i++ {
		addr := a.Malloc(2, 64)
		if addr == 0 {
			t.Fatal("exhausted")
		}
		addrs = append(addrs, addr)
	}
	for _, addr := range addrs {
		if err := a.Free(2, addr); err != nil {
			t.Fatal(err)
		}
	}
	class, _ := classFor(64)
	if n := a.cpus[2].free[class].n.Load(); n == 0 {
		t.Fatal("magazine empty before retirement; test premise broken")
	}
	before := len(a.global[class])
	a.RetireCPU(2)
	if n := a.cpus[2].free[class].n.Load(); n != 0 {
		t.Fatalf("magazine still holds %d blocks after RetireCPU", n)
	}
	if got := len(a.global[class]); got <= before {
		t.Fatalf("depot did not grow: %d -> %d", before, got)
	}
	if err := a.CheckConsistency(); err != nil {
		t.Fatalf("accounting broken after retirement: %v", err)
	}
	// The spilled blocks are reachable from another CPU's refill.
	if addr := a.Malloc(0, 64); addr == 0 {
		t.Fatal("depot blocks unreachable after retirement")
	}
	// Out-of-range retirement is a no-op, not a panic.
	a.RetireCPU(-1)
	a.RetireCPU(99)
}
