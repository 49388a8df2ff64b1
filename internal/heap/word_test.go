package heap

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"kflex/internal/faultinject"
)

// TestAlignedWordHeadMatchesGeneralPath runs one access sequence through
// Load/Store, whose head serves aligned words, on one heap, and through the
// general path alone (load/store) on its twin. Values, heap images, faults,
// the fault plan's events and its lifetime Fire count must all agree: for
// every plan, on mapped and unmapped pages, at a page's last word and the
// heap's, out of bounds and misaligned, and once more after Close.
func TestAlignedWordHeadMatchesGeneralPath(t *testing.T) {
	const size = 16 * PageSize
	plans := []struct {
		name string
		plan func() *faultinject.Plan
	}{
		{"nil", func() *faultinject.Plan { return nil }},
		{"nth", func() *faultinject.Plan {
			return faultinject.NewPlan(1).FailNth(faultinject.HeapGuard, PageSize-8, 2).FailNth(faultinject.HeapGuard, 24, 1)
		}},
		{"rate", func() *faultinject.Plan { return faultinject.NewPlan(7).SetRate(faultinject.HeapGuard, 0.3) }},
	}
	offs := []uint64{
		0, 8, 24, // a mapped page
		PageSize - 8,   // the last word of a page
		PageSize - 4,   // misaligned, straddling into the next page
		2 * PageSize,   // an unmapped page
		3*PageSize + 4, // misaligned
		size - 8,       // the heap's last word
		size, size + 8, // past the end
		^uint64(0) - 7,   // before the base
		3*PageSize + 512, // mapped
	}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			var hs [2]*Heap
			var ps [2]*faultinject.Plan
			for i := range hs {
				hs[i] = newHeap(t, size)
				for _, p := range []uint64{0, 1, 3, 15} {
					if err := hs[i].Populate(p*PageSize, PageSize); err != nil {
						t.Fatal(err)
					}
				}
				if ps[i] = pc.plan(); ps[i] != nil {
					ps[i].FailNth(faultinject.HelperErr, 0, 1) // fired last: its Seq is the Fire count
					hs[i].SetFaultPlan(ps[i])
					ps[i].Enable()
				}
			}
			head, general := hs[0].ExtView(), hs[1].ExtView()
			for round := 0; round < 2; round++ {
				if round == 1 {
					hs[0].Close()
					hs[1].Close()
				}
				for i, off := range offs {
					for _, n := range []int{8, 4} {
						val := uint64(i+1)*0x0101010101010101 + uint64(round)
						errH := head.Store(head.Base()+off, n, val)
						errG := general.store(general.Base()+off, n, val)
						sameFault(t, "store", off, n, errH, errG)
						vH, errH := head.Load(head.Base()+off, n)
						vG, errG := general.load(general.Base()+off, n)
						sameFault(t, "load", off, n, errH, errG)
						if vH != vG {
							t.Fatalf("round %d: load %d bytes at %#x: head %#x, general %#x", round, n, off, vH, vG)
						}
					}
				}
				if !slices.Equal(hs[0].words, hs[1].words) {
					t.Fatalf("round %d: heap images differ", round)
				}
			}
			if ps[0] != nil {
				ps[0].Fire(faultinject.HelperErr, 0)
				ps[1].Fire(faultinject.HelperErr, 0)
				if evH, evG := ps[0].Events(), ps[1].Events(); !slices.Equal(evH, evG) {
					t.Fatalf("fault events differ:\nhead:    %v\ngeneral: %v", evH, evG)
				}
			}
		})
	}
}

func sameFault(t *testing.T, what string, off uint64, n int, errH, errG error) {
	t.Helper()
	var fH, fG *Fault
	okH, okG := errors.As(errH, &fH), errors.As(errG, &fG)
	if (errH == nil) != (errG == nil) || okH != okG || okH && *fH != *fG {
		t.Fatalf("%s %d bytes at %#x: head err %v, general err %v", what, n, off, errH, errG)
	}
}

// TestConcurrentAlignedWordStores has goroutines store aligned words
// through the head — each its own word, and all of them one shared word —
// while loading them back. Under -race it checks that the head touches
// heap words only atomically; the final image must hold every goroutine's
// last store and one of the shared word's values.
func TestConcurrentAlignedWordStores(t *testing.T) {
	h, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	shared := v.Base() + 1024
	const workers, iters = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			own := v.Base() + 8*w
			for i := uint64(1); i <= iters; i++ {
				if err := v.Store(own, 8, w<<32|i); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if err := v.Store(shared, 8, w<<32|i); err != nil {
					t.Errorf("shared store: %v", err)
					return
				}
				if got, err := v.Load(own, 8); err != nil || got != w<<32|i {
					t.Errorf("worker %d: load = %#x, %v; want %#x", w, got, err, w<<32|i)
					return
				}
				if _, err := v.Load(shared, 8); err != nil {
					t.Errorf("shared load: %v", err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	got, err := v.Load(shared, 8)
	if err != nil || got>>32 >= workers || got&0xffffffff != iters {
		t.Fatalf("shared word = %#x, %v; want one worker's last store", got, err)
	}
}
