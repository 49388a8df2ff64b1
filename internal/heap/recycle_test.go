package heap

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// awaitParked collects garbage until size's free list holds want backings:
// the cleanup that recycles a heap runs on its own goroutine after a cycle.
func awaitParked(t *testing.T, size uint64, want int) {
	t.Helper()
	for i := 0; parked(size) != want; i++ {
		if i == 500 {
			t.Fatalf("free list of %#x holds %d backings, want %d", size, parked(size), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// dirtyHeap populates every page of a fresh heap and writes through each
// kind of access, then drops the heap. It returns the backing's words, which
// keep the memory, not the heap, alive.
func dirtyHeap(t *testing.T, size uint64) []uint64 {
	h := newHeap(t, size)
	if err := h.Populate(0, size); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	for off := uint64(0); off < size; off += PageSize {
		if err := v.Store(v.Base()+off, 8, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := v.AtomicRMW(v.Base()+off+8, 4, RMWOr, 0xdead); err != nil {
			t.Fatal(err)
		}
	}
	// A span that crosses every page boundary but the last.
	if err := v.WriteFrom(v.Base()+PageSize/2, bytes.Repeat([]byte{0xa5}, int(size-PageSize))); err != nil {
		t.Fatal(err)
	}
	return h.words
}

func TestRecycledHeapIsFresh(t *testing.T) {
	const size = 1 << 17
	unpark(size)
	old := dirtyHeap(t, size)
	awaitParked(t, size, 1)

	h := newHeap(t, size)
	if &h.words[0] != &old[0] {
		t.Fatal("the next heap of the size did not take the recycled backing")
	}
	if i := slices.IndexFunc(h.words, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Fatalf("recycled word %d = %#x, want 0", i, h.words[i])
	}
	if h.PopulatedPages() != 0 || h.MappedPages() != 0 {
		t.Fatalf("populated/mapped = %d/%d, want 0/0", h.PopulatedPages(), h.MappedPages())
	}
	v := h.ExtView()
	for off := uint64(0); off < size; off += 8 {
		_, err := v.Load(v.Base()+off, 8)
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultUnmapped {
			t.Fatalf("load at %#x of a recycled heap: %v, want %v", off, err, FaultUnmapped)
		}
	}
}

func TestClosedHeapNotRecycledWhileViewed(t *testing.T) {
	const size = 1 << 18
	unpark(size)
	v := func() View {
		h := newHeap(t, size)
		if err := h.Populate(0, PageSize); err != nil {
			t.Fatal(err)
		}
		h.Close()
		return h.UserView()
	}()
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := parked(size); n != 0 {
		t.Fatalf("a viewed heap's backing was recycled (%d parked)", n)
	}
	for _, err := range []error{v.Store(v.Base(), 8, 1), v.WriteFrom(v.Base(), []byte{1})} {
		var f *Fault
		if !errors.As(err, &f) || f.Kind != FaultClosed {
			t.Fatalf("write through the view of a closed heap: %v, want %v", err, FaultClosed)
		}
	}
	runtime.KeepAlive(v)
	awaitParked(t, size, 1) // and once the view is gone, it is
}

// TestHeapRecycleRace creates, dirties and drops heaps of two sizes on four
// goroutines with collections in between, so backings are recycled while
// other heaps are being created and written. Run it under -race.
func TestHeapRecycleRace(t *testing.T) {
	sizes := []uint64{1 << 13, 1 << 14}
	for _, s := range sizes {
		unpark(s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				size := sizes[(g+i)%len(sizes)]
				h, err := New(size)
				if err != nil {
					t.Error(err)
					return
				}
				if slices.ContainsFunc(h.words, func(w uint64) bool { return w != 0 }) || h.MappedPages() != 0 {
					t.Errorf("goroutine %d cycle %d: a fresh heap of %#x is not all zero and unmapped", g, i, size)
					return
				}
				off := uint64(i%int(size/PageSize)) * PageSize
				v := h.ExtView()
				if err := h.Populate(off, PageSize); err != nil {
					t.Error(err)
					return
				}
				if _, err := v.AtomicRMW(v.Base()+off, 8, RMWAdd, uint64(g+1)); err != nil {
					t.Error(err)
					return
				}
				if i%10 == g {
					runtime.GC()
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range sizes {
		if n := parked(s); n > maxFreeBackings {
			t.Errorf("free list of %#x holds %d backings, bound %d", s, n, maxFreeBackings)
		}
	}
}
