package heap

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"kflex/internal/faultinject"
)

func newHeap(t *testing.T, size uint64) *Heap {
	t.Helper()
	h, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []uint64{0, 3, PageSize - 1, PageSize * 3, MaxSize * 2} {
		if _, err := New(bad); err == nil {
			t.Errorf("size %#x accepted", bad)
		}
	}
	h, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 1<<20 || h.Mask() != 1<<20-1 {
		t.Errorf("size/mask wrong: %#x/%#x", h.Size(), h.Mask())
	}
	if h.ExtBase()%h.Size() != 0 {
		t.Errorf("ext base %#x not size-aligned", h.ExtBase())
	}
	if h.UserBase()%h.Size() != 0 {
		t.Errorf("user base %#x not size-aligned", h.UserBase())
	}
}

// TestPlacement: a heap's bases depend on its size alone. Each is aligned
// to the size, the lowest such address with a guard zone below it inside
// its region, and two heaps of one size that are live together share them.
// No MaxSize heap is built (its backing would be 16 GiB): its row checks the
// placement New uses.
func TestPlacement(t *testing.T) {
	for _, size := range []uint64{MinSize, 64 << 10, MaxSize} {
		for _, region := range []uint64{KernelVABase, UserVABase} {
			base := placement(region, size)
			if base%size != 0 || base < region+GuardZone || base-size >= region+GuardZone {
				t.Errorf("size %#x: base %#x in region %#x is not the lowest aligned one above a guard zone", size, base, region)
			}
		}
		if size == MaxSize {
			continue
		}
		a, b := newHeap(t, size), newHeap(t, size)
		if a.ExtBase() != placement(KernelVABase, size) || a.UserBase() != placement(UserVABase, size) ||
			b.ExtBase() != a.ExtBase() || b.UserBase() != a.UserBase() {
			t.Errorf("size %#x: live heaps at %#x/%#x and %#x/%#x, want both at %#x/%#x", size,
				a.ExtBase(), a.UserBase(), b.ExtBase(), b.UserBase(), placement(KernelVABase, size), placement(UserVABase, size))
		}
	}
}

func TestSanitizeInBounds(t *testing.T) {
	h := newHeap(t, 1<<16)
	for _, addr := range []uint64{0, 12, h.ExtBase() + 5, h.ExtBase() + h.Size() + 99, ^uint64(0)} {
		s := h.TranslateToExt(addr)
		if s < h.ExtBase() || s >= h.ExtBase()+h.Size() {
			t.Errorf("TranslateToExt(%#x) = %#x outside heap", addr, s)
		}
	}
	// Sanitizing an already-valid heap address must not change it (§3.2).
	in := h.ExtBase() + 260
	if got := h.TranslateToExt(in); got != in {
		t.Errorf("TranslateToExt(valid) = %#x, want %#x", got, in)
	}
}

func TestPaperSanitizeExample(t *testing.T) {
	// The paper's worked example: a 256-byte heap at base 256 and an
	// unsafe pointer at 524 sanitizes to 268 (§3.2). Our heap sizes are
	// page-granular, so reproduce the arithmetic directly.
	const size, base, ptr = 256, 256, 524
	masked := ptr & (size - 1)
	if masked != 12 {
		t.Fatalf("masked = %d, want 12", masked)
	}
	if got := masked + base; got != 268 {
		t.Fatalf("sanitized = %d, want 268", got)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	for _, n := range []int{1, 2, 4, 8} {
		addr := h.ExtBase() + 100 + uint64(n)*16
		want := uint64(0x1122334455667788)
		if n < 8 {
			want &= 1<<(n*8) - 1
		}
		if err := v.Store(addr, n, 0x1122334455667788); err != nil {
			t.Fatalf("store n=%d: %v", n, err)
		}
		got, err := v.Load(addr, n)
		if err != nil {
			t.Fatalf("load n=%d: %v", n, err)
		}
		if got != want {
			t.Errorf("n=%d: got %#x want %#x", n, got, want)
		}
	}
}

func TestStraddlingWordAccess(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, PageSize); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	// 8-byte store at offset 5 straddles two words.
	addr := h.ExtBase() + 5
	if err := v.Store(addr, 8, 0xa1b2c3d4e5f60718); err != nil {
		t.Fatal(err)
	}
	got, err := v.Load(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xa1b2c3d4e5f60718 {
		t.Fatalf("straddling load = %#x", got)
	}
	// Byte-wise readback agrees (little-endian).
	b := make([]byte, 8)
	if err := v.ReadInto(addr, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x18 || b[7] != 0xa1 {
		t.Fatalf("bytes = %x", b)
	}
}

func TestFaultKinds(t *testing.T) {
	h := newHeap(t, 1<<16)
	v := h.ExtView()
	// Unmapped page.
	_, err := v.Load(h.ExtBase(), 8)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("err = %v, want unmapped fault", err)
	}
	// Guard zone (just past the end).
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	_, err = v.Load(h.ExtBase()+h.Size(), 1)
	if !errors.As(err, &f) || f.Kind != FaultOOB {
		t.Fatalf("err = %v, want OOB fault", err)
	}
	// Access straddling the end.
	_, err = v.Load(h.ExtBase()+h.Size()-4, 8)
	if !errors.As(err, &f) || f.Kind != FaultOOB {
		t.Fatalf("err = %v, want OOB fault for straddle", err)
	}
	// Closed heap.
	h.Close()
	_, err = v.Load(h.ExtBase(), 8)
	if !errors.As(err, &f) || f.Kind != FaultClosed {
		t.Fatalf("err = %v, want closed fault", err)
	}
	if !h.Closed() {
		t.Error("Closed() = false")
	}
}

func TestDemandPaging(t *testing.T) {
	h := newHeap(t, 1<<16)
	if h.PopulatedPages() != 0 {
		t.Fatal("new heap has populated pages")
	}
	if err := h.Populate(PageSize+10, 20); err != nil {
		t.Fatal(err)
	}
	if !h.PageMapped(PageSize) || h.PageMapped(0) || h.PageMapped(2*PageSize) {
		t.Error("wrong pages mapped")
	}
	if h.PopulatedPages() != 1 {
		t.Errorf("populated = %d, want 1", h.PopulatedPages())
	}
	// Spanning populate maps both pages; re-populating is idempotent.
	if err := h.Populate(PageSize-4, 8); err != nil {
		t.Fatal(err)
	}
	if h.PopulatedPages() != 2 {
		t.Errorf("populated = %d, want 2", h.PopulatedPages())
	}
	if err := h.Populate(h.Size(), 1); err == nil {
		t.Error("populate past end accepted")
	}
	// Access spanning into an unmapped page faults.
	if err := h.Populate(0, 1); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	if err := v.Store(h.ExtBase()+PageSize-2, 4, 1); err != nil {
		t.Fatal("store should succeed, both pages mapped:", err)
	}
	_, err := v.Load(h.ExtBase()+2*PageSize-2, 4)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Fatalf("cross-page load into unmapped = %v", err)
	}
}

func TestUserViewSharing(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	ext, user := h.ExtView(), h.UserView()
	extAddr := h.ExtBase() + 512
	if err := ext.Store(extAddr, 8, 0xfeed); err != nil {
		t.Fatal(err)
	}
	userAddr := h.TranslateToUser(extAddr)
	if !user.Contains(userAddr) || user.Contains(extAddr) {
		t.Error("Contains wrong across views")
	}
	got, err := user.Load(userAddr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xfeed {
		t.Fatalf("user view sees %#x", got)
	}
	if back := h.TranslateToExt(userAddr); back != extAddr {
		t.Fatalf("round-trip translation: %#x != %#x", back, extAddr)
	}
}

func TestAtomicOps(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	addr := h.ExtBase() + 64
	if err := v.AtomicStore(addr, 8, 10); err != nil {
		t.Fatal(err)
	}
	old, err := v.AtomicRMW(addr, 8, RMWAdd, 5)
	if err != nil || old != 10 {
		t.Fatalf("RMWAdd old = %d, err = %v", old, err)
	}
	got, _ := v.AtomicLoad(addr, 8)
	if got != 15 {
		t.Fatalf("after add: %d", got)
	}
	old, err = v.AtomicCAS(addr, 8, 15, 99)
	if err != nil || old != 15 {
		t.Fatalf("CAS old = %d, err = %v", old, err)
	}
	old, err = v.AtomicCAS(addr, 8, 15, 1)
	if err != nil || old != 99 {
		t.Fatalf("failed CAS should return current: %d, %v", old, err)
	}
	// 32-bit field ops respect the containing word's other half.
	if err := v.AtomicStore(addr, 8, 0xaaaaaaaa_bbbbbbbb); err != nil {
		t.Fatal(err)
	}
	if _, err := v.AtomicRMW(addr, 4, RMWXor, 0xbbbbbbbb); err != nil {
		t.Fatal(err)
	}
	got, _ = v.AtomicLoad(addr, 8)
	if got != 0xaaaaaaaa_00000000 {
		t.Fatalf("32-bit RMW corrupted word: %#x", got)
	}
	// Misalignment faults.
	var f *Fault
	if _, err := v.AtomicLoad(addr+1, 8); !errors.As(err, &f) || f.Kind != FaultUnaligned {
		t.Fatalf("unaligned atomic: %v", err)
	}
	if _, err := v.AtomicRMW(addr, 2, RMWAdd, 1); !errors.As(err, &f) || f.Kind != FaultUnaligned {
		t.Fatalf("2-byte atomic: %v", err)
	}
}

func TestAtomicRMWOps(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	addr := h.ExtBase() + 128
	cases := []struct {
		op      AtomicRMWOp
		initial uint64
		operand uint64
		want    uint64
	}{
		{RMWAdd, 7, 3, 10},
		{RMWOr, 0b1010, 0b0101, 0b1111},
		{RMWAnd, 0b1110, 0b0111, 0b0110},
		{RMWXor, 0xff, 0x0f, 0xf0},
		{RMWXchg, 42, 7, 7},
	}
	for _, c := range cases {
		if err := v.AtomicStore(addr, 8, c.initial); err != nil {
			t.Fatal(err)
		}
		old, err := v.AtomicRMW(addr, 8, c.op, c.operand)
		if err != nil || old != c.initial {
			t.Errorf("op %d: old = %d, err = %v", c.op, old, err)
		}
		got, _ := v.AtomicLoad(addr, 8)
		if got != c.want {
			t.Errorf("op %d: got %#x want %#x", c.op, got, c.want)
		}
	}
}

func TestConcurrentAtomicAdds(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	addr := h.ExtBase() + 256
	const workers, iters = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		view := h.ExtView()
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				if _, err := view.AtomicRMW(addr, 8, RMWAdd, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, _ := h.ExtView().AtomicLoad(addr, 8)
	if got != workers*iters {
		t.Fatalf("atomic adds lost updates: %d", got)
	}
}

func TestSanitizeQuick(t *testing.T) {
	h := newHeap(t, 1<<20)
	f := func(addr uint64) bool {
		s := h.TranslateToExt(addr)
		if s < h.ExtBase() || s >= h.ExtBase()+h.Size() {
			return false
		}
		// Idempotence.
		return h.TranslateToExt(s) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadStoreQuick(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{1, 2, 4, 8}[r.Intn(4)]
		off := r.Uint64() % (h.Size() - 8)
		val := r.Uint64()
		addr := h.ExtBase() + off
		if v.Store(addr, n, val) != nil {
			return false
		}
		got, err := v.Load(addr, n)
		if err != nil {
			return false
		}
		want := val
		if n < 8 {
			want &= 1<<(n*8) - 1
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadBytes(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.UserView()
	data := []byte("the quick brown fox")
	addr := h.UserBase() + 1000
	if err := v.WriteFrom(addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := v.ReadInto(addr, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatalf("got %q", got)
	}
	if err := v.WriteFrom(h.UserBase()+h.Size()-2, data); err == nil {
		t.Error("write past end accepted")
	}
}

// --- Fault-injection failure paths -------------------------------------------

func TestInjectedGuardFault(t *testing.T) {
	h := newHeap(t, 1<<16)
	if err := h.Populate(0, h.Size()); err != nil {
		t.Fatal(err)
	}
	v := h.ExtView()
	// HeapGuard is keyed by heap offset: the second access to offset 64
	// faults as if the address had been sanitized into a guard zone.
	plan := faultinject.NewPlan(3).FailNth(faultinject.HeapGuard, 64, 2)
	h.SetFaultPlan(plan)
	plan.Enable()
	if err := v.Store(h.ExtBase()+64, 8, 0xabc); err != nil {
		t.Fatalf("first access: %v", err)
	}
	_, err := v.Load(h.ExtBase()+64, 8)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultOOB {
		t.Fatalf("injected access = %v, want OOB fault", err)
	}
	// One-shot: the fault does not repeat, and the data was untouched.
	got, err := v.Load(h.ExtBase()+64, 8)
	if err != nil || got != 0xabc {
		t.Fatalf("after injection: %v %#x", err, got)
	}
	ev := plan.Events()
	if len(ev) != 1 || ev[0].Kind != faultinject.HeapGuard || ev[0].Key != 64 {
		t.Fatalf("trace = %+v", ev)
	}
}

func TestInjectedPopulateFailure(t *testing.T) {
	h := newHeap(t, 1<<16)
	plan := faultinject.NewPlan(4).FailNth(faultinject.HeapPage, 2, 1)
	h.SetFaultPlan(plan)
	plan.Enable()
	err := h.Populate(2*PageSize, 8)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("populate = %v, want injected failure", err)
	}
	if h.PageMapped(2*PageSize) || h.PopulatedPages() != 0 {
		t.Fatal("failed populate must not map pages")
	}
	// The failure is transient: a retry maps the page.
	if err := h.Populate(2*PageSize, 8); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if !h.PageMapped(2 * PageSize) {
		t.Fatal("retry did not map the page")
	}
}
