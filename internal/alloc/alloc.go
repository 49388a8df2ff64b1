// Package alloc implements the KFlex memory allocator (§3.2, §4.1 of the
// paper): extension-heap memory served from per-CPU caches of size-class
// blocks, backed by a global list and a bump region, with heap pages
// populated on demand as runs are carved. The paper backs the global pool
// with jemalloc in user space and refills per-CPU caches from a background
// thread; here the pool is implemented directly on the heap, with the same
// three levels (per-CPU magazine → global list → fresh run) and no thread:
// a magazine is refilled by its owner, on its own miss, so which block a
// Malloc returns depends on the call sequence alone and never on timing.
//
// Concurrency discipline (§3.3): each per-CPU cache is private to the one
// goroutine driving that simulated CPU — the same exclusivity per-CPU data
// enjoys in the kernel — so the Malloc/Free fast path takes no lock at all.
// The global depot mutex is the only lock in the package's slow path,
// touched on magazine refill, spill, and run carving. Cache contents are
// stored as single-writer atomics purely so that audits (CheckConsistency,
// the supervisor's quarantine report) can observe them from another
// goroutine without a data race.
package alloc

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kflex/internal/faultinject"
	"kflex/internal/heap"
)

const (
	// ReservedRegion is the start of allocatable space: the first page
	// holds the extension globals.
	ReservedRegion = heap.PageSize
	// headerSize precedes every block, recording its size class.
	headerSize = 16
	// minClass is the smallest size class; classes double from it.
	minClass = 16
	// runPages is how many pages a fresh size-class run carves.
	runPages = 4
	// cacheCap bounds a per-CPU cache per class; half is flushed to the
	// global list on overflow.
	cacheCap = 64

	headerMagic = 0x6b666c78 // "kflx"
	hugeClass   = 0xff
)

// numClasses is the number of size classes (16..4096, doubling).
const numClasses = 9

func classFor(size uint64) (int, bool) {
	if size == 0 {
		size = 1
	}
	c := uint64(minClass)
	for i := 0; i < numClasses; i++ {
		if size <= c {
			return i, true
		}
		c <<= 1
	}
	return 0, false
}

func classSize(class int) uint64 { return minClass << class }

// Allocator manages one extension heap (§4.1).
type Allocator struct {
	h    *heap.Heap
	view heap.View

	// mu guards the depot: the bump pointer, the global free lists, the
	// run-carve accounting, and the huge-allocation counters. It is taken
	// only off the fast path (magazine refill/spill, run carve, huge
	// allocations, audits) — never on a cache hit.
	mu         sync.Mutex
	bump       uint64
	global     [numClasses][]uint64
	carved     [numClasses]uint64
	hugeAllocs uint64

	cpus []cpuCache

	// fault, when non-nil, injects allocation failures (chaos testing);
	// nil in production, so the hot path costs one nil check.
	fault *faultinject.Plan

	// Live-block tracking, enabled only by chaos/consistency tests: maps
	// header offset → class for every outstanding block so accounting can
	// be audited after injected faults. The tracking flag keeps the
	// production fast path to one atomic load (no trackMu).
	tracking atomic.Bool
	trackMu  sync.Mutex
	live     map[uint64]int // nil unless EnableTracking
}

// classCache is one per-CPU, per-class magazine. Exactly one goroutine —
// the owner of the simulated CPU — pushes and pops; the entries and the
// length gauge are single-writer atomics only so audits may read them
// concurrently without a race.
type classCache struct {
	n     atomic.Int32
	slots [cacheCap + 1]atomic.Uint64
}

func (c *classCache) pop() (uint64, bool) {
	n := c.n.Load()
	if n == 0 {
		return 0, false
	}
	off := c.slots[n-1].Load()
	c.n.Store(n - 1)
	return off, true
}

func (c *classCache) push(off uint64) {
	n := c.n.Load()
	c.slots[n].Store(off)
	c.n.Store(n + 1)
}

// cpuCache is the private state of one simulated CPU: its magazines and
// its share of the allocator statistics (merged on Stats).
type cpuCache struct {
	free [numClasses]classCache

	allocs, frees   atomic.Uint64
	refills, spills atomic.Uint64
}

// Stats reports allocator activity.
type Stats struct {
	Allocs, Frees   uint64
	Refills, Spills uint64
	HugeAllocs      uint64
}

// New creates an allocator over h for the given number of simulated CPUs.
func New(h *heap.Heap, cpus int) *Allocator {
	if cpus < 1 {
		cpus = 1
	}
	return &Allocator{
		h:    h,
		view: h.ExtView(),
		bump: ReservedRegion,
		cpus: make([]cpuCache, cpus),
	}
}

// SetFaultPlan attaches a fault-injection plan; nil detaches it. Call
// before the allocator is shared across goroutines.
func (a *Allocator) SetFaultPlan(p *faultinject.Plan) { a.fault = p }

// EnableTracking turns on live-block accounting so CheckConsistency can
// audit the free lists. Call before any allocation traffic.
func (a *Allocator) EnableTracking() {
	a.trackMu.Lock()
	if a.live == nil {
		a.live = make(map[uint64]int)
	}
	a.trackMu.Unlock()
	a.tracking.Store(true)
}

// BumpOff returns the current bump pointer (the next unallocated heap
// offset); everything below it has been carved or reserved.
func (a *Allocator) BumpOff() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bump
}

// ExpectedPopulatedPages derives how many heap pages the allocator should
// have populated: the reserved first page plus every page the bump pointer
// has carved runs from. The quarantine audit (and the chaos suite's
// invariant checks) compare this against the heap's own accounting to
// detect leaked or double-populated pages.
func (a *Allocator) ExpectedPopulatedPages() uint64 {
	return 1 + (a.BumpOff()-ReservedRegion)/heap.PageSize
}

func (a *Allocator) trackAlloc(hdrOff uint64, class int) {
	if !a.tracking.Load() {
		return
	}
	a.trackMu.Lock()
	a.live[hdrOff] = class
	a.trackMu.Unlock()
}

func (a *Allocator) trackFree(hdrOff uint64) {
	if !a.tracking.Load() {
		return
	}
	a.trackMu.Lock()
	delete(a.live, hdrOff)
	a.trackMu.Unlock()
}

// Stats returns a snapshot of allocator counters: the per-CPU shares are
// merged, so a concurrent snapshot is approximate per counter but never
// torn within one.
func (a *Allocator) Stats() Stats {
	var s Stats
	for i := range a.cpus {
		c := &a.cpus[i]
		s.Allocs += c.allocs.Load()
		s.Frees += c.frees.Load()
		s.Refills += c.refills.Load()
		s.Spills += c.spills.Load()
	}
	a.mu.Lock()
	s.HugeAllocs = a.hugeAllocs
	s.Allocs += a.hugeAllocs
	a.mu.Unlock()
	return s
}

// cpuOf maps a CPU number onto the cache table.
func (a *Allocator) cpuOf(cpu int) *cpuCache {
	idx := cpu % len(a.cpus)
	if idx < 0 {
		idx += len(a.cpus)
	}
	return &a.cpus[idx]
}

// Malloc allocates at least size bytes and returns the extension VA of the
// block, or 0 when the heap is exhausted (kflex_malloc's contract). The
// fast path — a per-CPU cache hit — performs no locking: the cache is
// private to the goroutine driving cpu (the per-CPU exclusivity rule
// Extension.Handle documents).
func (a *Allocator) Malloc(cpu int, size uint64) uint64 {
	class, ok := classFor(size)
	if !ok {
		return a.mallocHuge(size)
	}
	if a.fault != nil && a.fault.Fire(faultinject.AllocFail, uint64(class)) {
		return 0
	}
	c := a.cpuOf(cpu)
	if off, ok := c.free[class].pop(); ok {
		c.allocs.Add(1)
		a.trackAlloc(off, class)
		return a.h.ExtBase() + off + headerSize
	}
	// Miss: a batch from the global depot, or a freshly carved run.
	blocks := a.refill(class)
	if blocks == nil {
		return 0
	}
	off := blocks[len(blocks)-1]
	for _, b := range blocks[:len(blocks)-1] {
		c.free[class].push(b)
	}
	c.allocs.Add(1)
	c.refills.Add(1)
	a.trackAlloc(off, class)
	return a.h.ExtBase() + off + headerSize
}

// refill obtains a batch of blocks of the class, from the global pool or by
// carving a new run; block headers are initialized here.
func (a *Allocator) refill(class int) []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.global[class]); n > 0 {
		take := cacheCap / 2
		if take > n {
			take = n
		}
		out := make([]uint64, take)
		copy(out, a.global[class][n-take:])
		a.global[class] = a.global[class][:n-take]
		return out
	}
	blocks := a.carveLocked(class)
	if len(blocks) > cacheCap/2 {
		// A run carves far more blocks than one magazine holds; bank
		// the surplus in the depot.
		a.global[class] = append(a.global[class], blocks[cacheCap/2:]...)
		blocks = blocks[:cacheCap/2]
	}
	return blocks
}

// carveLocked carves a fresh run of pages into blocks of the class. Caller
// holds a.mu.
func (a *Allocator) carveLocked(class int) []uint64 {
	bs := classSize(class) + headerSize
	runBytes := uint64(runPages * heap.PageSize)
	start := a.bump
	if start+runBytes > a.h.Size() {
		return nil
	}
	if err := a.h.Populate(start, runBytes); err != nil {
		return nil
	}
	a.bump += runBytes
	var out []uint64
	for off := start; off+bs <= start+runBytes; off += bs {
		if err := a.writeHeader(off, uint64(class)); err != nil {
			return nil
		}
		out = append(out, off)
	}
	a.carved[class] += uint64(len(out))
	return out
}

// mallocHuge serves allocations beyond the largest size class directly from
// the bump region, page aligned.
func (a *Allocator) mallocHuge(size uint64) uint64 {
	if a.fault != nil && a.fault.Fire(faultinject.AllocFail, hugeClass) {
		return 0
	}
	pages := (size + headerSize + heap.PageSize - 1) / heap.PageSize
	bytes := pages * heap.PageSize
	a.mu.Lock()
	defer a.mu.Unlock()
	start := a.bump
	if start+bytes > a.h.Size() {
		return 0
	}
	if err := a.h.Populate(start, bytes); err != nil {
		return 0
	}
	a.bump += bytes
	a.hugeAllocs++
	if err := a.writeHeaderHuge(start, pages); err != nil {
		return 0
	}
	return a.h.ExtBase() + start + headerSize
}

func (a *Allocator) writeHeader(off, class uint64) error {
	return a.view.Store(a.h.ExtBase()+off, 8, headerMagic|class<<32)
}

func (a *Allocator) writeHeaderHuge(off, pages uint64) error {
	return a.view.Store(a.h.ExtBase()+off, 8, headerMagic|hugeClass<<32|pages<<40)
}

// Free returns the block at extension VA addr. Bad pointers (not produced
// by Malloc, double frees of reused headers, addresses outside the heap)
// return an error; kflex_free surfaces it as -EINVAL to the extension.
// Cross-CPU frees are first-class: a block allocated on CPU A and freed on
// CPU B simply enters B's magazine (block ownership travels with the
// pointer; only the cache itself is per-CPU), and overflowing magazines
// spill to the global depot under its lock.
func (a *Allocator) Free(cpu int, addr uint64) error {
	off := addr - a.h.ExtBase()
	if off < ReservedRegion+headerSize || off >= a.h.Size() {
		return fmt.Errorf("alloc: free of address %#x outside allocatable heap", addr)
	}
	hdrOff := off - headerSize
	hdr, err := a.view.Load(a.h.ExtBase()+hdrOff, 8)
	if err != nil {
		return err
	}
	if uint32(hdr) != headerMagic {
		return fmt.Errorf("alloc: free of %#x: bad block header", addr)
	}
	class := hdr >> 32 & 0xff
	c := a.cpuOf(cpu)
	if class == hugeClass {
		// A huge block's free is only counted: its range and its
		// populated pages stay with the heap for its life, and the huge
		// bump pointer only moves up (ROADMAP item 21).
		c.frees.Add(1)
		return nil
	}
	if class >= numClasses {
		return fmt.Errorf("alloc: free of %#x: invalid class %d", addr, class)
	}
	a.trackFree(hdrOff)
	cc := &c.free[class]
	cc.push(hdrOff)
	if int(cc.n.Load()) > cacheCap {
		// Spill half to the global depot.
		spill := make([]uint64, 0, cacheCap/2+1)
		for len(spill) <= cacheCap/2 {
			b, ok := cc.pop()
			if !ok {
				break
			}
			spill = append(spill, b)
		}
		a.mu.Lock()
		a.global[int(class)] = append(a.global[int(class)], spill...)
		a.mu.Unlock()
		c.spills.Add(1)
	}
	c.frees.Add(1)
	return nil
}

// RetireCPU spills cpu's private per-class magazines back to the global
// depot. Call it when no handle routes to cpu's slot any more — a
// cross-CPU migration moved the shard off it, or one rolled back after its
// resync ran there — so cached blocks are not stranded on a dead CPU where
// no Malloc will ever pop them again. The caller must guarantee the goroutine that owned
// the slot has quiesced: the magazines are single-writer and RetireCPU
// becomes that writer.
func (a *Allocator) RetireCPU(cpu int) {
	if cpu < 0 || cpu >= len(a.cpus) {
		return
	}
	c := &a.cpus[cpu]
	var batch [numClasses][]uint64
	moved := false
	for class := 0; class < numClasses; class++ {
		cc := &c.free[class]
		for {
			b, ok := cc.pop()
			if !ok {
				break
			}
			batch[class] = append(batch[class], b)
		}
	}
	a.mu.Lock()
	for class := 0; class < numClasses; class++ {
		if len(batch[class]) > 0 {
			a.global[class] = append(a.global[class], batch[class]...)
			moved = true
		}
	}
	a.mu.Unlock()
	if moved {
		c.spills.Add(1)
	}
}

// CheckConsistency audits allocator accounting: every carved block of each
// size class must be exactly once on a free list or (when tracking is on)
// in the live set, with no duplicate offsets and a valid header. Chaos
// tests call it after injected faults to prove no allocator blocks were
// lost or double-listed during recovery.
//
// The answer is exact only on a quiescent allocator. A concurrent audit —
// the supervisor's quarantine whose drain timed out "audits anyway" — is
// race-free, and reads the lock-free magazines before it takes the depot,
// bump and carved counts under mu. bump only grows, so every block seen in
// a magazine lies below the bump read after it: the carved-region bound and
// the header checks hold under traffic. What a concurrent audit cannot
// check is membership: a block that moves between the two reads is listed
// twice (magazine → depot: a Free's spill, RetireCPU) or not at all (depot →
// magazine: a refill), and one allocated or freed meanwhile may be on a
// free list and in the live set, or in neither. "Listed twice" and the
// tracked count balance are findings only when nothing else is running.
func (a *Allocator) CheckConsistency() error {
	// Observation must not itself be an injection site: header reads go
	// through the heap view, and an injected guard fault there would
	// report a phantom inconsistency.
	defer a.fault.Suspend()()
	// Snapshot free lists per class: per-CPU magazines, then the depot.
	free := make([][]uint64, numClasses)
	for i := range a.cpus {
		c := &a.cpus[i]
		for class := 0; class < numClasses; class++ {
			cc := &c.free[class]
			n := cc.n.Load()
			for j := int32(0); j < n; j++ {
				free[class] = append(free[class], cc.slots[j].Load())
			}
		}
	}
	a.mu.Lock()
	for class := 0; class < numClasses; class++ {
		free[class] = append(free[class], a.global[class]...)
	}
	bump := a.bump
	carved := a.carved
	a.mu.Unlock()

	a.trackMu.Lock()
	live := make(map[uint64]int, len(a.live))
	for off, class := range a.live {
		live[off] = class
	}
	tracking := a.live != nil
	a.trackMu.Unlock()

	seen := make(map[uint64]string)
	check := func(off uint64, class int, where string) error {
		if prev, dup := seen[off]; dup {
			return fmt.Errorf("alloc: block %#x listed twice (%s and %s)", off, prev, where)
		}
		seen[off] = where
		if off < ReservedRegion || off >= bump {
			return fmt.Errorf("alloc: %s block %#x outside carved region [%#x,%#x)", where, off, uint64(ReservedRegion), bump)
		}
		hdr, err := a.view.Load(a.h.ExtBase()+off, 8)
		if err != nil {
			return fmt.Errorf("alloc: %s block %#x: header unreadable: %w", where, off, err)
		}
		if uint32(hdr) != headerMagic {
			return fmt.Errorf("alloc: %s block %#x: corrupt header %#x", where, off, hdr)
		}
		if got := int(hdr >> 32 & 0xff); got != class {
			return fmt.Errorf("alloc: %s block %#x: header class %d, expected %d", where, off, got, class)
		}
		return nil
	}
	counts := [numClasses]uint64{}
	for class := 0; class < numClasses; class++ {
		offs := append([]uint64(nil), free[class]...)
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, off := range offs {
			if err := check(off, class, "free"); err != nil {
				return err
			}
			counts[class]++
		}
	}
	for off, class := range live {
		if err := check(off, class, "live"); err != nil {
			return err
		}
		counts[class]++
	}
	if tracking {
		for class := 0; class < numClasses; class++ {
			if counts[class] != carved[class] {
				return fmt.Errorf("alloc: class %d: carved %d blocks but %d accounted (free+live) — blocks lost",
					class, carved[class], counts[class])
			}
		}
	}
	return nil
}
