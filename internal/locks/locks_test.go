package locks

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"kflex/internal/heap"
)

func lockFixture(t *testing.T) (*Locks, *Locks, uint64, heap.View) {
	t.Helper()
	h, err := heap.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	ext := New(h.ExtView())
	user := New(h.UserView())
	return ext, user, 64, h.ExtView() // lock at heap offset 64
}

func TestLockUnlock(t *testing.T) {
	ext, _, off, v := lockFixture(t)
	addr := v.Base() + off
	if !ext.Lock(addr, nil) {
		t.Fatal("lock failed")
	}
	if !ext.Held(addr) {
		t.Fatal("Held = false while locked")
	}
	if err := ext.Unlock(addr); err != nil {
		t.Fatal(err)
	}
	if ext.Held(addr) {
		t.Fatal("Held = true after unlock")
	}
	if err := ext.Unlock(addr); err == nil {
		t.Fatal("unlock of free lock accepted")
	}
}

func TestMutualExclusion(t *testing.T) {
	ext, _, off, v := lockFixture(t)
	addr := v.Base() + off
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if !ext.Lock(addr, nil) {
					t.Error("lock failed")
					return
				}
				counter++
				if err := ext.Unlock(addr); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 8*400 {
		t.Fatalf("counter = %d, want %d (lost updates)", counter, 8*400)
	}
}

// TestCrossMappingLock is §3.4's core property: the extension view and the
// user view synchronize through the same lock word.
func TestCrossMappingLock(t *testing.T) {
	ext, user, off, v := lockFixture(t)
	extAddr := v.Base() + off
	userAddr := v.Heap().UserBase() + off
	if !ext.Lock(extAddr, nil) {
		t.Fatal("ext lock failed")
	}
	if !user.Held(userAddr) {
		t.Fatal("user view does not see the held lock")
	}
	acquired := make(chan bool)
	go func() {
		acquired <- user.Lock(userAddr, nil)
	}()
	select {
	case <-acquired:
		t.Fatal("user acquired a held lock")
	case <-time.After(20 * time.Millisecond):
	}
	if err := ext.Unlock(extAddr); err != nil {
		t.Fatal(err)
	}
	if !<-acquired {
		t.Fatal("user lock failed after release")
	}
	if err := user.Unlock(userAddr); err != nil {
		t.Fatal(err)
	}
}

// cancelChan is a waiter's invocation: cancelled once the channel is closed.
type cancelChan chan struct{}

func (c cancelChan) Cancelled() bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestCancelledWaiterAbandons is the §3.4 stall path: a waiter whose
// extension is cancelled abandons the queue, and the FIFO repairs itself.
func TestCancelledWaiterAbandons(t *testing.T) {
	ext, _, off, v := lockFixture(t)
	addr := v.Base() + off
	if !ext.Lock(addr, nil) {
		t.Fatal("initial lock failed")
	}
	cancelled := make(cancelChan)
	result := make(chan bool)
	go func() { result <- ext.Lock(addr, cancelled) }()
	time.Sleep(10 * time.Millisecond)
	close(cancelled)
	if got := <-result; got {
		t.Fatal("cancelled waiter acquired the lock")
	}
	// The abandoned ticket must not wedge the queue: release and
	// re-acquire.
	if err := ext.Unlock(addr); err != nil {
		t.Fatal(err)
	}
	done := make(chan bool)
	go func() { done <- ext.Lock(addr, nil) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("re-acquisition failed")
		}
	case <-time.After(time.Second):
		t.Fatal("queue wedged by abandoned ticket")
	}
	if err := ext.Unlock(addr); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedTicketsPerHeap: abandonment is a fact about one lock in one
// heap. Heap A's lock (offset 64) has a holder and a waiter that gave up —
// through the user mapping, while the holder unlocks through the extension
// mapping, so the two views must share the record. Heap B has a lock at the
// same offset with a live waiter behind the holder. When the record was one
// process-wide table keyed by offset, B's unlock consumed A's entry, stepped
// over its own live ticket — B's waiter spun forever — and left A wedged
// behind a ticket nobody would skip any more. The second case closes A
// first: a record must not outlive its heap and meet the fresh heap of the
// next generation, which lays its locks out at the same offsets.
func TestAbandonedTicketsPerHeap(t *testing.T) {
	giveUp := make(cancelChan)
	close(giveUp)
	for _, tc := range []struct {
		name   string
		closeA bool
	}{
		{"sibling heap", false},
		{"closed predecessor", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			extA, userA, off, vA := lockFixture(t)
			addrA := vA.Base() + off
			if !extA.Lock(addrA, nil) {
				t.Fatal("A: lock failed")
			}
			if userA.Lock(vA.Heap().UserBase()+off, giveUp) {
				t.Fatal("A: cancelled waiter acquired a held lock")
			}
			if tc.closeA {
				vA.Heap().Close()
			}

			extB, _, _, vB := lockFixture(t)
			addrB := vB.Base() + off
			if !extB.Lock(addrB, nil) {
				t.Fatal("B: lock failed")
			}
			stop := make(cancelChan)
			acquired := make(chan bool, 1)
			go func() { acquired <- extB.Lock(addrB, stop) }()
			// Unlock only once the waiter holds ticket 1.
			for {
				next, err := vB.AtomicLoad(addrB+4, 4)
				if err != nil {
					t.Fatal(err)
				}
				if next == 2 {
					break
				}
				runtime.Gosched()
			}
			if err := extB.Unlock(addrB); err != nil {
				t.Fatal(err)
			}
			select {
			case ok := <-acquired:
				if !ok {
					t.Fatal("B: live waiter reported cancelled")
				}
			case <-time.After(2 * time.Second):
				close(stop)
				<-acquired
				t.Fatal("B: live waiter skipped — heap A's abandoned ticket was applied to heap B")
			}
			if err := extB.Unlock(addrB); err != nil {
				t.Fatal(err)
			}
			if tc.closeA {
				return
			}
			// A's record is still A's: its unlock steps over the ticket
			// abandoned through the user view and the lock is free.
			if err := extA.Unlock(addrA); err != nil {
				t.Fatal(err)
			}
			if !extA.Lock(addrA, giveUp) {
				t.Fatal("A: wedged behind its own abandoned ticket")
			}
			if err := extA.Unlock(addrA); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRSeqTimeSlice(t *testing.T) {
	var r RSeq
	// Not in a critical section: no grace needed.
	if r.RequestPreempt(time.Millisecond) {
		t.Fatal("preempted an idle thread")
	}
	// Cooperative: leaves the critical section within the grace.
	r.Enter()
	go func() {
		time.Sleep(2 * time.Millisecond)
		r.Leave()
	}()
	if r.RequestPreempt(200 * time.Millisecond) {
		t.Fatal("cooperative thread was force-preempted")
	}
	if r.Granted.Load() != 1 || r.Expired.Load() != 0 {
		t.Fatalf("counters: granted=%d expired=%d", r.Granted.Load(), r.Expired.Load())
	}
	// Nested sections are counted (§4.4).
	r.Enter()
	r.Enter()
	r.Leave()
	if !r.InCS() {
		t.Fatal("nested CS lost")
	}
	// Non-cooperative: grace expires, forced preemption.
	if !r.RequestPreempt(2 * time.Millisecond) {
		t.Fatal("non-cooperative thread not preempted")
	}
	if !r.Preempted() || r.Expired.Load() != 1 {
		t.Fatal("preemption not recorded")
	}
	r.Leave()
}

func TestRSeqUnderflowPanics(t *testing.T) {
	var r RSeq
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	r.Leave()
}
