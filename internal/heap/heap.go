// Package heap implements KFlex extension heaps (§3.2, §4.1 of the paper):
// memory regions fully owned and managed by an extension, allocated at a
// size-aligned simulated virtual address so that SFI sanitization reduces to
// one mask and one add, surrounded by guard zones that absorb the signed
// 16-bit displacement of load/store instructions, demand-paged in 4 KiB
// units, and mappable a second time at a user-space base for transparent
// sharing with applications (§3.4).
//
// The backing store is a []uint64 so that aligned 32- and 64-bit atomic
// operations map onto sync/atomic primitives, exactly as heap words behave
// for concurrently running extensions and user threads. Non-atomic accesses
// require the same external synchronization (KFlex spin locks) the paper's
// extensions use.
package heap

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"kflex/internal/faultinject"
)

const (
	// PageSize is the demand-paging granularity.
	PageSize = 4096
	// GuardZone is the guard region placed on either side of a heap. It
	// matches the ±32 KiB reach of the eBPF load/store displacement
	// (§4.1: 16-bit signed offsets range over ±2^15).
	GuardZone = 32 << 10
	// MinSize is the smallest heap: one page.
	MinSize = PageSize
	// MaxSize caps a single heap at 16 GiB; the paper's example declares
	// a 16 GB heap (Listing 1), beyond eBPF arena's 4 GB limit (§4.5).
	MaxSize = 16 << 30
)

// FaultKind classifies a failed heap access.
type FaultKind int

const (
	// FaultOOB is an access outside [base, base+size): a guard-zone hit
	// or a wild address.
	FaultOOB FaultKind = iota
	// FaultUnmapped is an in-bounds access to a page that has no backing
	// store yet (§3.3: class-2 cancellation points exist because heaps
	// are not pre-populated).
	FaultUnmapped
	// FaultUnaligned is a misaligned atomic operation.
	FaultUnaligned
	// FaultClosed is an access to a heap whose owner has freed it.
	FaultClosed
)

func (k FaultKind) String() string {
	switch k {
	case FaultOOB:
		return "out-of-bounds"
	case FaultUnmapped:
		return "unmapped-page"
	case FaultUnaligned:
		return "unaligned-atomic"
	case FaultClosed:
		return "heap-closed"
	}
	return "unknown"
}

// Fault describes a failed heap access. The KFlex runtime converts faults
// raised during extension execution into cancellations.
type Fault struct {
	Addr uint64
	Kind FaultKind
}

func (f *Fault) Error() string {
	return fmt.Sprintf("heap fault: %s at %#x", f.Kind, f.Addr)
}

// Simulated address-space layout.
const (
	// KernelVABase mirrors the x86-64 vmalloc base.
	KernelVABase = 0xffffc90000000000
	// UserVABase is where user-space mappings of heaps are placed.
	UserVABase = 0x00007f0000000000
)

// placement returns the base of every heap of the given size in the region
// starting at region: the lowest size-aligned address with a guard zone
// below it inside the region. A heap's address is a function of its size
// alone, so it needs no reservation, cannot run out and does not depend on
// the heaps built before it. Heaps of one size share the range: isolation
// is the guard, which folds any value into the heap it is used against
// (§3.2), and nothing maps an address back to a heap.
func placement(region, size uint64) uint64 {
	return (region + GuardZone + size - 1) &^ (size - 1)
}

// Heap is one extension heap.
type Heap struct {
	size     uint64
	mask     uint64
	extBase  uint64
	userBase uint64

	words []uint64
	pages []atomic.Bool // mapped flag per page

	closed    atomic.Bool
	populated atomic.Uint64 // mapped page count, for accounting (memcg analogue)

	// fault, when non-nil, injects guard-zone and demand-paging failures
	// (chaos testing); nil in production, so sites cost one nil check.
	fault *faultinject.Plan

	abandoned AbandonedTickets
}

// AbandonedTickets is the queue-repair record of the ticket locks that
// live in one heap (internal/locks): per lock-word offset, the tickets
// whose waiters were cancelled while spinning, which the unlock path must
// step over. It belongs to the heap, not to a mapping of it and not to the
// process: the extension and user views of a lock have to agree on it, a
// lock at the same offset of another heap must not, and it has to die with
// the heap rather than be replayed against the next generation's.
type AbandonedTickets struct {
	mu sync.Mutex
	m  map[abandonedTicket]struct{}
}

type abandonedTicket struct {
	off    uint64
	ticket uint32
}

// Add records that ticket of the lock at heap offset off will never be
// claimed.
func (a *AbandonedTickets) Add(off uint64, ticket uint32) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.m == nil {
		a.m = make(map[abandonedTicket]struct{})
	}
	a.m[abandonedTicket{off, ticket}] = struct{}{}
}

// Remove reports whether ticket of the lock at off was abandoned, and
// forgets it.
func (a *AbandonedTickets) Remove(off uint64, ticket uint32) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := abandonedTicket{off, ticket}
	_, ok := a.m[k]
	delete(a.m, k)
	return ok
}

// New creates a heap of the given power-of-two size and maps it at a
// user-space base as well. No pages are populated: backing memory appears
// on demand (§3.2).
func New(size uint64) (*Heap, error) {
	if size < MinSize || size > MaxSize || size&(size-1) != 0 {
		return nil, fmt.Errorf("heap: size %#x must be a power of two in [%#x, %#x]", size, uint64(MinSize), uint64(MaxSize))
	}
	var b backing
	free.Lock()
	if l := free.m[size/8]; len(l) > 0 {
		b, free.m[size/8] = l[len(l)-1], l[:len(l)-1]
	}
	free.Unlock()
	if b.words == nil {
		b = backing{make([]uint64, size/8), make([]atomic.Bool, size/PageSize)}
	}
	h := &Heap{
		size: size, mask: size - 1,
		extBase: placement(KernelVABase, size), userBase: placement(UserVABase, size),
		words: b.words, pages: b.pages,
	}
	runtime.AddCleanup(h, recycle, b)
	return h, nil
}

// backing is a heap's memory. It is recycled once the heap is unreachable,
// not at Close: a View that passed its closed check may still store. So
// Populate and every View accessor keep the heap alive (runtime.KeepAlive)
// past their last touch of the backing.
type backing struct {
	words []uint64
	pages []atomic.Bool
}

// maxFreeBackings bounds the backings parked per heap size: two covers a
// generation's heap and its migration target's.
const maxFreeBackings = 2

// free parks recycled backings by word count.
var free = struct {
	sync.Mutex
	m map[uint64][]backing
}{m: make(map[uint64][]backing)}

// recycle zeroes the populated pages of an unreachable heap's backing, the
// only ones an access can have written, and parks it for the next heap of
// its size: a load then pays for the pages the last heap touched, not for a
// zeroed allocation of all of it.
func recycle(b backing) {
	for p := range b.pages {
		if b.pages[p].Swap(false) {
			clear(b.words[p*PageSize/8 : (p+1)*PageSize/8])
		}
	}
	n := uint64(len(b.words))
	free.Lock()
	if len(free.m[n]) < maxFreeBackings {
		free.m[n] = append(free.m[n], b)
	}
	free.Unlock()
}

// SetFaultPlan attaches a fault-injection plan; nil detaches it. Call
// before the heap is shared across goroutines.
func (h *Heap) SetFaultPlan(p *faultinject.Plan) { h.fault = p }

// Size returns the heap size in bytes.
func (h *Heap) Size() uint64 { return h.size }

// Mask returns size-1, the sanitization mask.
func (h *Heap) Mask() uint64 { return h.mask }

// Abandoned returns the heap's abandoned-ticket record.
func (h *Heap) Abandoned() *AbandonedTickets { return &h.abandoned }

// ExtBase returns the heap's base address in the extension address space.
func (h *Heap) ExtBase() uint64 { return h.extBase }

// UserBase returns the heap's base address in the user mapping.
func (h *Heap) UserBase() uint64 { return h.userBase }

// PopulatedPages returns the number of demand-mapped pages; the paper
// charges these to the application's memory cgroup (§4.1).
func (h *Heap) PopulatedPages() uint64 { return h.populated.Load() }

// MappedPages recounts the per-page mapped flags. It must always equal
// PopulatedPages; the supervisor's quarantine audit compares the two to
// detect accounting drift (a page mapped without being charged, or
// vice versa) before a heap is torn down.
func (h *Heap) MappedPages() uint64 {
	var n uint64
	for i := range h.pages {
		if h.pages[i].Load() {
			n++
		}
	}
	return n
}

// Close releases the heap. Subsequent accesses fault with FaultClosed.
// The paper de-allocates a shared heap only when the owning application
// closes its file descriptor or exits (§3.4).
func (h *Heap) Close() { h.closed.Store(true) }

// Closed reports whether Close has been called.
func (h *Heap) Closed() bool { return h.closed.Load() }

// TranslateToUser rewrites an extension-VA heap pointer into the user
// mapping (translate-on-store, §3.4). Values outside the heap translate by
// offset anyway; the next dereference re-sanitizes, which the paper notes
// keeps extension correctness intact.
func (h *Heap) TranslateToUser(addr uint64) uint64 {
	return (addr & h.mask) + h.userBase
}

// TranslateToExt rewrites a user-VA heap pointer into the extension mapping.
// It is the SFI transformation applied to an arbitrary 64-bit value — keep
// the offset bits, add the base (§3.2) — so the result always lies within
// [ExtBase, ExtBase+Size).
func (h *Heap) TranslateToExt(addr uint64) uint64 {
	return (addr & h.mask) + h.extBase
}

// Populate maps all pages overlapping [off, off+n). The allocator calls this
// when it hands out memory, mirroring on-demand PTE population (§3.2).
func (h *Heap) Populate(off, n uint64) error {
	if n == 0 {
		return nil
	}
	if off >= h.size || off+n > h.size || off+n < off {
		return fmt.Errorf("heap: populate [%#x,%#x) outside heap of size %#x", off, off+n, h.size)
	}
	if h.fault != nil && h.fault.Fire(faultinject.HeapPage, off/PageSize) {
		return fmt.Errorf("heap: populate [%#x,%#x): %w", off, off+n, faultinject.ErrInjected)
	}
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		if !h.pages[p].Swap(true) {
			h.populated.Add(1)
		}
	}
	runtime.KeepAlive(h)
	return nil
}

// PageMapped reports whether the page containing offset off is populated.
func (h *Heap) PageMapped(off uint64) bool {
	if off >= h.size {
		return false
	}
	return h.pages[off/PageSize].Load()
}

// offsetOf validates addr against the mapping based at base and returns the
// heap offset of an n-byte access.
func (h *Heap) offsetOf(addr uint64, n int, base uint64) (uint64, *Fault) {
	if h.closed.Load() {
		return 0, &Fault{Addr: addr, Kind: FaultClosed}
	}
	// Keyed by heap offset, not VA: offsets are identical across runtime
	// instances, so fault traces stay comparable between runs.
	if h.fault != nil && h.fault.Fire(faultinject.HeapGuard, addr-base) {
		return 0, &Fault{Addr: addr, Kind: FaultOOB}
	}
	off := addr - base
	if off >= h.size || off+uint64(n) > h.size {
		return 0, &Fault{Addr: addr, Kind: FaultOOB}
	}
	// All pages spanned by the access must be mapped.
	for p := off / PageSize; p <= (off+uint64(n)-1)/PageSize; p++ {
		if !h.pages[p].Load() {
			return 0, &Fault{Addr: addr, Kind: FaultUnmapped}
		}
	}
	return off, nil
}

// loadOff reads n little-endian bytes at heap offset off.
//
// Heap words are read with atomic loads: extensions on different CPUs (and
// user-space threads of a shared heap) access the same backing words
// concurrently, so the simulated memory must behave like real memory —
// concurrent word accesses are tearing-free per word, and racy accesses
// are a data-ordering question for the extension (settled by its spin
// locks), never undefined behaviour in the runtime itself.
func (h *Heap) loadOff(off uint64, n int) uint64 {
	w := off / 8
	shift := (off % 8) * 8
	v := atomic.LoadUint64(&h.words[w]) >> shift
	if rem := 64 - shift; rem < uint64(n)*8 {
		v |= atomic.LoadUint64(&h.words[w+1]) << rem
	}
	if n < 8 {
		v &= (uint64(1) << (uint(n) * 8)) - 1
	}
	return v
}

// storeOff writes the low n bytes of val at heap offset off. An aligned
// 8-byte store — the dominant case for pointer and value words — is one
// atomic store; narrower or misaligned stores merge into their containing
// word(s) by compare-and-swap, so a concurrent store to *other* bytes of
// the same word is never lost (byte-granular stores behave like real
// memory, not read-modify-write races).
func (h *Heap) storeOff(off uint64, n int, val uint64) {
	w := off / 8
	shift := (off % 8) * 8
	if n == 8 && shift == 0 {
		atomic.StoreUint64(&h.words[w], val)
		return
	}
	var m uint64 = ^uint64(0)
	if n < 8 {
		m = (uint64(1) << (uint(n) * 8)) - 1
	}
	val &= m
	casMerge(&h.words[w], m<<shift, val<<shift)
	if rem := 64 - shift; rem < uint64(n)*8 {
		casMerge(&h.words[w+1], m>>rem, val>>rem)
	}
}

// casMerge replaces the mask bits of *p with bits, preserving concurrent
// writes to the other bits of the word.
func casMerge(p *uint64, mask, bits uint64) {
	for {
		old := atomic.LoadUint64(p)
		if atomic.CompareAndSwapUint64(p, old, old&^mask|bits) {
			return
		}
	}
}

// View is one mapping of a heap: the extension view or the user view.
// All addresses passed to its accessors are virtual addresses in that view.
type View struct {
	h    *Heap
	base uint64
}

// ExtView returns the extension-address-space view.
func (h *Heap) ExtView() View { return View{h: h, base: h.extBase} }

// UserView returns the user-address-space view.
func (h *Heap) UserView() View { return View{h: h, base: h.userBase} }

// Base returns the view's base address.
func (v View) Base() uint64 { return v.base }

// Heap returns the underlying heap.
func (v View) Heap() *Heap { return v.h }

// Contains reports whether addr falls inside this view of the heap.
func (v View) Contains(addr uint64) bool {
	return addr-v.base < v.h.size
}

// alignedWord reports whether the n-byte access at heap offset off is the
// dominant one the heads of Load and Store serve with one atomic word op:
// an aligned word in bounds, on a mapped page of an open heap that carries
// no fault plan. Anything else takes the general path — a closed heap must
// fault, and a plan must be offered every access in order.
func (h *Heap) alignedWord(off uint64, n int) bool {
	return n == 8 && off&7 == 0 && off < h.size && h.fault == nil && !h.closed.Load() && h.pages[off/PageSize].Load()
}

// Load reads an n-byte little-endian value at addr (n ∈ {1,2,4,8}).
func (v View) Load(addr uint64, n int) (uint64, error) {
	if off := addr - v.base; v.h.alignedWord(off, n) {
		val := atomic.LoadUint64(&v.h.words[off/8])
		runtime.KeepAlive(v.h)
		return val, nil
	}
	return v.load(addr, n)
}

// load is Load's general path.
func (v View) load(addr uint64, n int) (uint64, error) {
	off, f := v.h.offsetOf(addr, n, v.base)
	if f != nil {
		return 0, f
	}
	val := v.h.loadOff(off, n)
	runtime.KeepAlive(v.h)
	return val, nil
}

// Store writes the low n bytes of val at addr.
func (v View) Store(addr uint64, n int, val uint64) error {
	if off := addr - v.base; v.h.alignedWord(off, n) {
		atomic.StoreUint64(&v.h.words[off/8], val)
		runtime.KeepAlive(v.h)
		return nil
	}
	return v.store(addr, n, val)
}

// store is Store's general path.
func (v View) store(addr uint64, n int, val uint64) error {
	off, f := v.h.offsetOf(addr, n, v.base)
	if f != nil {
		return f
	}
	v.h.storeOff(off, n, val)
	runtime.KeepAlive(v.h)
	return nil
}

// atomicWord validates an aligned n-byte (4 or 8) atomic access and returns
// the containing word index and bit shift.
func (v View) atomicWord(addr uint64, n int) (w uint64, shift uint64, f *Fault) {
	if n != 4 && n != 8 {
		return 0, 0, &Fault{Addr: addr, Kind: FaultUnaligned}
	}
	if addr%uint64(n) != 0 {
		return 0, 0, &Fault{Addr: addr, Kind: FaultUnaligned}
	}
	off, fault := v.h.offsetOf(addr, n, v.base)
	if fault != nil {
		return 0, 0, fault
	}
	return off / 8, (off % 8) * 8, nil
}

// AtomicLoad performs an acquire load of an aligned 4- or 8-byte value.
func (v View) AtomicLoad(addr uint64, n int) (uint64, error) {
	w, shift, f := v.atomicWord(addr, n)
	if f != nil {
		return 0, f
	}
	val := atomic.LoadUint64(&v.h.words[w]) >> shift
	runtime.KeepAlive(v.h)
	if n == 4 {
		val &= 0xffffffff
	}
	return val, nil
}

// AtomicStore performs a release store of an aligned 4- or 8-byte value.
func (v View) AtomicStore(addr uint64, n int, val uint64) error {
	w, shift, f := v.atomicWord(addr, n)
	if f != nil {
		return f
	}
	if n == 8 {
		atomic.StoreUint64(&v.h.words[w], val)
	} else {
		casMerge(&v.h.words[w], uint64(0xffffffff)<<shift, (val&0xffffffff)<<shift)
	}
	runtime.KeepAlive(v.h)
	return nil
}

// AtomicRMWOp selects the modify function of an atomic read-modify-write.
type AtomicRMWOp int

// Atomic read-modify-write operations, mirroring the eBPF atomic set.
const (
	RMWAdd AtomicRMWOp = iota
	RMWOr
	RMWAnd
	RMWXor
	RMWXchg
)

func (op AtomicRMWOp) apply(old, operand uint64) uint64 {
	switch op {
	case RMWAdd:
		return old + operand
	case RMWOr:
		return old | operand
	case RMWAnd:
		return old & operand
	case RMWXor:
		return old ^ operand
	case RMWXchg:
		return operand
	}
	// Internal invariant: the VM's atomic dispatch only constructs the ops
	// above; an unknown op cannot originate from extension input.
	panic("heap: unknown RMW op")
}

// AtomicRMW applies op at addr and returns the previous value.
func (v View) AtomicRMW(addr uint64, n int, op AtomicRMWOp, operand uint64) (uint64, error) {
	w, shift, f := v.atomicWord(addr, n)
	if f != nil {
		return 0, f
	}
	var mask uint64 = ^uint64(0)
	if n == 4 {
		mask = 0xffffffff
		operand &= mask
	}
	for {
		old := atomic.LoadUint64(&v.h.words[w])
		field := (old >> shift) & mask
		nw := old&^(mask<<shift) | (op.apply(field, operand)&mask)<<shift
		if atomic.CompareAndSwapUint64(&v.h.words[w], old, nw) {
			runtime.KeepAlive(v.h)
			return field, nil
		}
	}
}

// AtomicCAS compares-and-swaps the value at addr; it returns the value
// observed before the operation (the eBPF BPF_CMPXCHG contract).
func (v View) AtomicCAS(addr uint64, n int, expect, desired uint64) (uint64, error) {
	w, shift, f := v.atomicWord(addr, n)
	if f != nil {
		return 0, f
	}
	var mask uint64 = ^uint64(0)
	if n == 4 {
		mask = 0xffffffff
		expect &= mask
		desired &= mask
	}
	for {
		old := atomic.LoadUint64(&v.h.words[w])
		field := (old >> shift) & mask
		nw := old&^(mask<<shift) | (desired&mask)<<shift
		if field != expect || atomic.CompareAndSwapUint64(&v.h.words[w], old, nw) {
			runtime.KeepAlive(v.h)
			return field, nil
		}
	}
}

// span validates the n-byte span at addr in the mapping based at base once,
// with the outcome n successive one-byte accesses would have: it returns the
// span's heap offset, the number of leading bytes that are accessible, and
// the *Fault the first inaccessible byte raises (nil when avail == n).
func (h *Heap) span(addr uint64, n int, base uint64) (off uint64, avail int, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	if h.closed.Load() {
		return 0, 0, &Fault{Addr: addr, Kind: FaultClosed}
	}
	off = addr - base
	kind := FaultOOB
	if off < h.size {
		avail = int(min(uint64(n), h.size-off))
		for p := off / PageSize; p <= (off+uint64(avail)-1)/PageSize; p++ {
			if !h.pages[p].Load() {
				// The span starts in a mapped page or at this one.
				avail, kind = int(max(p*PageSize, off)-off), FaultUnmapped
				break
			}
		}
	}
	if h.fault != nil {
		// The plan is offered every byte a byte-wise copy would have
		// reached — the accessible prefix and the byte that stops it —
		// in address order: it draws from its RNG per call, so the call
		// sequence is what keeps seeded chaos traces reproducible.
		reach := min(avail+1, n)
		for i := 0; i < reach; i++ {
			if h.fault.Fire(faultinject.HeapGuard, off+uint64(i)) {
				avail, kind = i, FaultOOB
				break
			}
		}
	}
	if avail < n {
		err = &Fault{Addr: addr + uint64(avail), Kind: kind}
	}
	return off, avail, err
}

// ReadInto fills dst with the len(dst) bytes at addr. The span is validated
// once (closed, heap end, the mapped flag of each page it touches) and moved
// a word at a time: one atomic load per aligned word, the ragged head and
// tail through loadOff. When a byte of the span is inaccessible, the bytes
// before it are still copied and the returned *Fault names that byte.
func (v View) ReadInto(addr uint64, dst []byte) error {
	off, avail, err := v.h.span(addr, len(dst), v.base)
	dst = dst[:avail]
	if head := int(-off & 7); head != 0 && len(dst) > 0 {
		head = min(head, len(dst))
		putLE(dst[:head], v.h.loadOff(off, head))
		off, dst = off+uint64(head), dst[head:]
	}
	for ; len(dst) >= 8; off, dst = off+8, dst[8:] {
		binary.LittleEndian.PutUint64(dst, atomic.LoadUint64(&v.h.words[off/8]))
	}
	if len(dst) > 0 {
		putLE(dst, v.h.loadOff(off, len(dst)))
	}
	runtime.KeepAlive(v.h)
	return err
}

// WriteFrom copies src into the heap at addr, with ReadInto's validation
// and fault contract: the accessible prefix is stored, the *Fault names the
// first byte that was not. Aligned words are single atomic stores; the head
// and tail merge into their words by compare-and-swap (storeOff), so a
// concurrent writer of the other bytes of those words loses nothing.
func (v View) WriteFrom(addr uint64, src []byte) error {
	off, avail, err := v.h.span(addr, len(src), v.base)
	src = src[:avail]
	if head := int(-off & 7); head != 0 && len(src) > 0 {
		head = min(head, len(src))
		v.h.storeOff(off, head, getLE(src[:head]))
		off, src = off+uint64(head), src[head:]
	}
	for ; len(src) >= 8; off, src = off+8, src[8:] {
		atomic.StoreUint64(&v.h.words[off/8], binary.LittleEndian.Uint64(src))
	}
	if len(src) > 0 {
		v.h.storeOff(off, len(src), getLE(src))
	}
	runtime.KeepAlive(v.h)
	return err
}

// putLE writes the low len(b) (< 8) bytes of v into b, little-endian.
func putLE(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
}

// getLE reads b (shorter than 8 bytes) as a little-endian value.
func getLE(b []byte) uint64 {
	var v uint64
	for i, c := range b {
		v |= uint64(c) << (8 * i)
	}
	return v
}
