package heap

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// TestConcurrentSubWordStores has two goroutines repeatedly writing
// disjoint byte ranges of the same heap word. Sub-word stores CAS-merge
// into the containing word, so neither writer may clobber the other's
// bytes — the failure mode a plain read-modify-write would have.
func TestConcurrentSubWordStores(t *testing.T) {
	h, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	addr := v.Base() + 512 // one 8-byte word: low half vs high half
	const iters = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := v.Store(addr, 4, uint64(i)&0xffffffff); err != nil {
				t.Errorf("low store: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := v.Store(addr+4, 4, uint64(i)&0xffffffff); err != nil {
				t.Errorf("high store: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	lo, err1 := v.Load(addr, 4)
	hi, err2 := v.Load(addr+4, 4)
	if err1 != nil || err2 != nil {
		t.Fatalf("load: %v / %v", err1, err2)
	}
	if lo != iters-1 || hi != iters-1 {
		t.Fatalf("word halves = %d/%d, want %d/%d (a sub-word store clobbered its neighbor)",
			lo, hi, iters-1, iters-1)
	}
}

// TestConcurrentByteStoresOneWord is the finer-grained version: eight
// goroutines each own one byte of the same word.
func TestConcurrentByteStoresOneWord(t *testing.T) {
	h, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	base := v.Base() + 1024
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if err := v.Store(base+uint64(b), 1, uint64(0x10+b)); err != nil {
					t.Errorf("byte %d: %v", b, err)
					return
				}
			}
		}(b)
	}
	wg.Wait()
	word, err := v.Load(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		if got := byte(word >> (8 * b)); got != byte(0x10+b) {
			t.Fatalf("byte %d = %#x, want %#x (word %#x)", b, got, 0x10+b, word)
		}
	}
}

// TestConcurrentDemandPaging populates distinct page ranges from multiple
// goroutines while a reader polls the page-accounting gauges; the
// page-present bits are atomic so population is exactly-once.
func TestConcurrentDemandPaging(t *testing.T) {
	h, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < pages; p += 4 {
				if err := h.Populate(uint64(p)*PageSize, PageSize); err != nil {
					t.Errorf("populate page %d: %v", p, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if h.PopulatedPages() > pages {
				t.Errorf("populated count overshot: %d", h.PopulatedPages())
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.PopulatedPages(); got != pages {
		t.Fatalf("populated pages = %d, want %d (double-counted population?)", got, pages)
	}
}

// TestConcurrentSpanWrites has two goroutines WriteFrom adjacent byte
// ranges that split heap words between them (and between them and bytes
// nobody writes) while a third ReadIntos the whole region. The ragged ends
// of a span merge into their words by CAS, so no writer may lose bytes to
// the other and the untouched bytes must survive — the guarantee
// TestConcurrentSubWordStores gives for Store.
func TestConcurrentSpanWrites(t *testing.T) {
	h, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	base := v.Base() + 2048 // four words; bytes 0-2 and 29-31 are never written
	edge := []byte{0xe0, 0xe1, 0xe2}
	if err := v.WriteFrom(base, edge); err != nil {
		t.Fatal(err)
	}
	if err := v.WriteFrom(base+29, edge); err != nil {
		t.Fatal(err)
	}
	const iters = 5000
	var wg sync.WaitGroup
	writer := func(off uint64, n int) {
		defer wg.Done()
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			for j := range buf {
				buf[j] = byte(i)
			}
			if err := v.WriteFrom(base+off, buf); err != nil {
				t.Errorf("write at +%d: %v", off, err)
				return
			}
		}
	}
	wg.Add(3)
	go writer(3, 10)  // bytes 3-12: shares word 0 with the edge, word 1 with the other writer
	go writer(13, 16) // bytes 13-28: the rest of word 1, all of word 2, most of word 3
	go func() {
		defer wg.Done()
		got := make([]byte, 32)
		for i := 0; i < iters; i++ {
			if err := v.ReadInto(base, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got[:3], edge) || !bytes.Equal(got[29:], edge) {
				t.Errorf("untouched bytes clobbered mid-run: %x", got)
				return
			}
		}
	}()
	wg.Wait()
	got := make([]byte, 32)
	if err := v.ReadInto(base, got); err != nil {
		t.Fatal(err)
	}
	last := (iters - 1) & 0xff
	want := slices.Concat(edge, bytes.Repeat([]byte{byte(last)}, 26), edge)
	if !bytes.Equal(got, want) {
		t.Fatalf("region = %x, want %x (a span write lost bytes to its neighbor)", got, want)
	}
}
