// Package vm executes instrumented KFlex bytecode: it is the analogue of
// the eBPF JIT plus the KFlex runtime (§3 step 3, §4.2–§4.3 of the paper).
// Kie's internal opcodes lower to single dispatch steps (the paper lowers
// them to one or two hardware instructions), heap accesses go through the
// extension heap with demand paging, faults become extension cancellations
// that release held kernel objects and return the hook's default code, and
// terminate probes bound every loop.
//
// Cancellation has one scope rule and one policy number. A cancel request
// always names one invocation of one Exec (RequestCancel, by sequence word):
// the watchdog's stall firing and a caller's deadline are both that.
// Retirement (Program.Unload) is the one program-wide stop: a flag every
// probe and lock spin reads, which stops every CPU until the owner revives
// the program (Program.Revive) with nothing in flight.
// Options.CancelThreshold decides when a completed cancellation retires the
// program.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"kflex/insn"
	"kflex/internal/alloc"
	"kflex/internal/compile"
	"kflex/internal/faultinject"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/locks"
)

// Synthetic address-space windows for non-heap memory visible to extensions.
const (
	stackVABase = 0xffffb00000000000
	ctxVABase   = 0xffffb10000000000
	pinVABase   = 0xffff990000000000
	pinStride   = 1 << 12
)

// StackSize is the extension stack size, matching the verifier.
const StackSize = 512

// CancelKind classifies why an invocation was cancelled.
type CancelKind int

const (
	// CancelNone: the invocation completed normally.
	CancelNone CancelKind = iota
	// CancelTerminate: a *terminate probe stopped the invocation (quantum
	// expiry, a cancel request for this invocation, or retirement; class-1,
	// §3.3).
	CancelTerminate
	// CancelFault: a heap access faulted (unmapped page, guard zone, or
	// a performance-mode wild read; class-2, §3.3/§4.2).
	CancelFault
	// CancelLock: a spin-lock acquisition was abandoned because the
	// program was cancelled while spinning (§3.4).
	CancelLock
	// CancelHelper: a helper call failed with an injected error; the
	// invocation unwinds exactly like a heap fault (chaos testing).
	CancelHelper
)

func (k CancelKind) String() string {
	switch k {
	case CancelNone:
		return "none"
	case CancelTerminate:
		return "terminate-probe"
	case CancelFault:
		return "heap-fault"
	case CancelLock:
		return "lock-spin"
	case CancelHelper:
		return "helper-err"
	}
	return "?"
}

// Stats counts work done by one invocation.
//
// Insns counts retired architectural instructions of the instrumented
// stream, charged where each one executes; the reference semantics
// (internal/refsem) counts the same values for the same program and input,
// and the differential harness at the repo root enforces this. Dispatches and
// Fused belong to the lowered code alone: dispatch-loop iterations, fewer
// than Insns whenever a cluster retires two or three architectural
// instructions per dispatch.
type Stats struct {
	Insns       uint64
	Guards      uint64 // guard instructions executed
	GuardsRead  uint64 // of which read guards (none are emitted in perf mode)
	Probes      uint64 // terminate probes executed
	HelperCalls uint64

	// Dispatches counts dispatch-loop iterations.
	Dispatches uint64
	// Fused counts the architectural instructions that retired inside a
	// cluster without a dispatch of their own: Insns - Dispatches.
	Fused uint64
}

// Add accumulates o into s (workload-level aggregation).
func (s *Stats) Add(o Stats) {
	s.Insns += o.Insns
	s.Guards += o.Guards
	s.GuardsRead += o.GuardsRead
	s.Probes += o.Probes
	s.HelperCalls += o.HelperCalls
	s.Dispatches += o.Dispatches
	s.Fused += o.Fused
}

// Result describes one completed invocation.
type Result struct {
	Ret       uint64
	Cancelled CancelKind
	Stats     Stats
	// Abort carries the typed abort (fault kind + PC) when Cancelled is
	// not CancelNone; nil for normal completions.
	Abort *ExtensionAbort
}

// Options configure a loaded program.
type Options struct {
	Hook   *kernel.Hook
	Kernel *kernel.Kernel
	// Heap is the extension heap; nil for eBPF-compat programs.
	Heap *heap.Heap
	// Alloc backs kflex_malloc/kflex_free.
	Alloc *alloc.Allocator
	// Lock backs the spin-lock helpers.
	Lock *locks.Locks
	// QuantumInsns bounds one invocation's instruction count; exceeding
	// it makes the next terminate probe cancel. Zero disables the
	// deterministic quantum (the wall-clock watchdog remains available
	// via Exec.RequestCancel).
	QuantumInsns uint64
	// Callback optionally adjusts the return code of a cancelled
	// invocation (§4.3). It must have been verified with ScalarR1 and
	// without cancellation points, and lowered like any program.
	Callback *Program
	// CancelThreshold is the completed-cancellation count at which the
	// program is unloaded on every CPU. 0 and 1 are the paper's policy of
	// not re-running a buggy extension (§4.3: the first cancellation
	// unloads); N > 1 keeps the first N-1 cancellations scoped to their
	// invocation (the paper's future work); a count no run reaches never
	// unloads.
	CancelThreshold uint64
	// Fault, when non-nil, injects faults at the VM's cancellation
	// points (chaos testing): terminate-probe cancellations keyed by CP
	// id, and helper-call errors keyed by helper ID.
	Fault *faultinject.Plan
	// Lowered is the program Run executes: the instrumented stream lowered
	// and linked by internal/compile (required). Abort PCs still name the
	// instrumented stream's instructions.
	Lowered *compile.Linked
}

// Program is a loaded, instrumented extension ready to run.
type Program struct {
	opts Options

	unloaded atomic.Bool
	cancels  atomic.Uint64
}

// TerminateWordOff is the heap word New reserves, on the page that holds
// the globals, and the key a probe's HeapGuard draw is injected at.
const TerminateWordOff = 0

// ErrUnloaded is returned when running a program that was unloaded — by
// its cancellation policy (§4.3: a cancellation on one CPU terminates the
// extension on all CPUs and unloads it) or by its owner.
var ErrUnloaded = errors.New("vm: extension unloaded, serve via user-space fallback")

// New loads a lowered program.
func New(opts Options) (*Program, error) {
	if opts.Kernel == nil || opts.Hook == nil || opts.Lowered == nil {
		return nil, fmt.Errorf("vm: Kernel, Hook and Lowered are required")
	}
	p := &Program{opts: opts}
	if opts.Heap != nil {
		if err := opts.Heap.Populate(TerminateWordOff, 8); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Unload retires the program: future invocations fail with ErrUnloaded, and
// in-flight ones on every CPU cancel at their next probe or lock spin.
// doCancel calls it when the cancellation count reaches
// Options.CancelThreshold; owners call it to retire an extension. Unload is
// idempotent and safe to call concurrently with Run; it reports whether this
// call performed the transition (false when the program was already
// unloaded).
func (p *Program) Unload() bool {
	return p.unloaded.CompareAndSwap(false, true)
}

// Unloaded reports whether the program has been retired.
func (p *Program) Unloaded() bool { return p.unloaded.Load() }

// Revive undoes a retirement: the cancellation count restarts at zero and
// invocations run again. The owner calls it only once every invocation that
// was in flight at the Unload has returned, so no probe can read the flag
// mid-change. The count is cleared first: an invocation that starts the
// moment the flag drops already counts towards a fresh threshold.
func (p *Program) Revive() {
	p.cancels.Store(0)
	p.unloaded.Store(false)
}

// Cancels returns the number of cancellations that occurred.
func (p *Program) Cancels() uint64 { return p.cancels.Load() }

// heldRef is a kernel object acquired and not yet released.
type heldRef struct {
	obj *kernel.Object
	ptr uint64
}

// Exec is a per-CPU execution context; reuse one per worker and call Run
// per event. An Exec must not be used concurrently. It is the kernel.Env of
// the helpers it calls.
type Exec struct {
	prog *Program
	// cb runs Options.Callback for this context's cancelled invocations;
	// nil without one.
	cb    *Exec
	regs  [insn.NumRegs]uint64
	stack [StackSize]byte
	ctx   []byte

	held      []heldRef
	heldLocks []uint64 // ext VAs of spin locks acquired and not released
	pins      [][]byte

	// heldN/heldLocksN mirror len(held)/len(heldLocks) as atomics so
	// HeldCounts can be polled from other goroutines (the supervisor's
	// quarantine audit runs while sibling CPUs are still unwinding)
	// without racing the owner's slice operations. Only the owning
	// goroutine writes them; every change of a slice's length is published,
	// except that a gauge already at zero is not stored to again (zeroGauge).
	heldN      atomic.Int32
	heldLocksN atomic.Int32

	inject *faultinject.Plan // nil in production

	xlatVal   uint64
	xlatArmed bool

	// seq is the invocation-sequence word: Run adds one on entry and one
	// on exit, so it is odd exactly while an invocation is in flight and
	// every invocation is in flight under a different value. The watchdog
	// polls it and keeps the time itself (§4.3: monitoring is passive —
	// nothing is stamped per invocation). A Run that returns before starting
	// (unloaded program, wrong ctx size) adds two: the call consumes its word
	// without ever being in flight. cur is the owner's plain copy of the
	// in-flight value, so a probe compares without a second atomic load.
	seq atomic.Uint64
	cur uint64

	// cancelReq is the sequence word of the invocation asked to cancel
	// (watchdog stall, caller deadline: §4.3's cooperative termination).
	// Probes and lock spins compare it with cur and unwind on a match,
	// exactly as on retirement. Sequence words never repeat and the zero
	// value is even, so a request that lands late — after its invocation
	// returned, or for a Run that never started — matches nothing and
	// needs no clearing.
	cancelReq atomic.Uint64

	stats Stats
	hc    kernel.HelperCtx

	extView heap.View
	hasHeap bool
}

// NewExec creates an execution context bound to simulated CPU cpu, and with
// it the context its callback runs in.
func (p *Program) NewExec(cpu int) *Exec {
	e := &Exec{prog: p, inject: p.opts.Fault}
	e.hc = kernel.HelperCtx{Kernel: p.opts.Kernel, CPU: cpu, Alloc: p.opts.Alloc, Lock: p.opts.Lock, Env: e}
	if p.opts.Heap != nil {
		e.extView = p.opts.Heap.ExtView()
		e.hasHeap = true
		e.hc.Heap = &e.extView
	}
	if p.opts.Callback != nil {
		e.cb = p.opts.Callback.NewExec(cpu)
	}
	return e
}

// Hold implements kernel.Env.
func (e *Exec) Hold(obj *kernel.Object, ptr uint64) {
	e.held = append(e.held, heldRef{obj: obj, ptr: ptr})
	e.heldN.Store(int32(len(e.held)))
}

// Unhold implements kernel.Env.
func (e *Exec) Unhold(ptr uint64) *kernel.Object {
	for i := len(e.held) - 1; i >= 0; i-- {
		if e.held[i].ptr == ptr {
			obj := e.held[i].obj
			e.held = append(e.held[:i], e.held[i+1:]...)
			e.heldN.Store(int32(len(e.held)))
			return obj
		}
	}
	return nil
}

// HoldLock implements kernel.Env.
func (e *Exec) HoldLock(addr uint64) {
	e.heldLocks = append(e.heldLocks, addr)
	e.heldLocksN.Store(int32(len(e.heldLocks)))
}

// ReleaseLock implements kernel.Env.
func (e *Exec) ReleaseLock(addr uint64) {
	for i := len(e.heldLocks) - 1; i >= 0; i-- {
		if e.heldLocks[i] == addr {
			e.heldLocks = append(e.heldLocks[:i], e.heldLocks[i+1:]...)
			e.heldLocksN.Store(int32(len(e.heldLocks)))
			return
		}
	}
}

// PinValue implements kernel.Env.
func (e *Exec) PinValue(val []byte) uint64 {
	e.pins = append(e.pins, val)
	return pinVABase + uint64(len(e.pins)-1)*pinStride
}

// Cancelled is the stop rule of probes and lock spins alike (it implements
// kernel.Env): the invocation has retired more instructions than its
// quantum, a cancel request names it, or the program is retired.
func (e *Exec) Cancelled() bool {
	q := e.prog.opts.QuantumInsns
	return q > 0 && e.stats.Insns > q || e.cancelReq.Load() == e.cur || e.prog.unloaded.Load()
}

// ErrExtensionAbort is the sentinel every typed extension abort matches
// via errors.Is.
var ErrExtensionAbort = errors.New("vm: extension abort")

// ExtensionAbort is the typed error raised when an invocation hits a
// cancellation point: it carries the fault kind and the PC of the
// instruction that observed it. Recovery (doCancel) consumes it; it never
// escapes Run as an error, but tests and callers can inspect it through
// Result.Abort.
type ExtensionAbort struct {
	Kind CancelKind
	PC   int
}

func (c *ExtensionAbort) Error() string {
	return fmt.Sprintf("vm: extension abort (%s) at insn %d", c.Kind, c.PC)
}

// Is makes errors.Is(err, ErrExtensionAbort) hold for every abort.
func (c *ExtensionAbort) Is(target error) bool { return target == ErrExtensionAbort }

// Run executes the program on an event. ctxBytes is the hook context
// structure (its length must match the hook's CtxSize).
func (e *Exec) Run(event any, ctxBytes []byte) (Result, error) {
	p := e.prog
	if p.unloaded.Load() {
		e.seq.Add(2)
		return Result{}, ErrUnloaded
	}
	if len(ctxBytes) != p.opts.Hook.CtxSize {
		e.seq.Add(2)
		return Result{}, fmt.Errorf("vm: ctx size %d, hook %s wants %d",
			len(ctxBytes), p.opts.Hook.Name, p.opts.Hook.CtxSize)
	}
	e.ctx = ctxBytes
	e.hc.Event = event
	e.held = e.held[:0]
	e.heldLocks = e.heldLocks[:0]
	zeroGauge(&e.heldN)
	zeroGauge(&e.heldLocksN)
	e.pins = e.pins[:0]
	e.xlatArmed = false
	e.stats = Stats{}
	e.regs[insn.R1] = ctxVABase
	e.regs[insn.R10] = stackVABase + StackSize

	// In flight from here to the second add. There is deliberately no
	// defer: a panic out of a helper leaves the word odd, and the watchdog
	// then asks it to cancel a quantum later — the right outcome for an
	// execution context that never came back.
	e.cur = e.seq.Add(1)
	ret, err := e.loopLowered()
	e.stats.Fused = e.stats.Insns - e.stats.Dispatches
	e.seq.Add(1)
	if err == nil {
		if len(e.held) != 0 || len(e.heldLocks) != 0 {
			// Verified programs release everything; reaching this
			// point means a verifier/runtime bug.
			nheld := len(e.held)
			e.unwind()
			return Result{}, fmt.Errorf("vm: internal: %d references leaked past exit", nheld)
		}
		return Result{Ret: ret, Stats: e.stats}, nil
	}
	var cancel *ExtensionAbort
	if errors.As(err, &cancel) {
		return e.doCancel(cancel)
	}
	e.unwind()
	return Result{}, err
}

// unwind releases the spin locks and kernel objects this invocation still
// holds. Fault injection is suspended for the duration: recovery must run
// to completion unconditionally — a harness that faulted the unwind itself
// could never establish the no-leak invariants cancellation guarantees
// (the kernel's object-table walk is likewise not preemptible by further
// faults, §3.3).
func (e *Exec) unwind() {
	defer e.inject.Suspend()()
	e.releaseLocks()
	e.releaseHeld()
}

// doCancel implements extension cancellation (§3.3): release acquired
// spin locks and kernel objects in LIFO order (the object-table walk),
// count the cancellation and, once the count reaches the threshold, unload
// the extension on all CPUs (§4.3 cancellation scope), then compute the
// default return code (optionally adjusted by the callback).
func (e *Exec) doCancel(c *ExtensionAbort) (Result, error) {
	p := e.prog
	e.unwind()
	if p.cancels.Add(1) >= p.opts.CancelThreshold {
		p.Unload()
	}
	ret := p.opts.Hook.DefaultRet
	if e.cb != nil {
		// The callback receives the default code in R1 (ScalarR1
		// verification) and returns the adjusted code.
		if res, err := e.cb.runCallback(ret); err == nil {
			ret = res
		}
	}
	return Result{Ret: ret, Cancelled: c.Kind, Stats: e.stats, Abort: c}, nil
}

// runCallback executes a restricted callback program with R1 = code.
func (e *Exec) runCallback(code uint64) (uint64, error) {
	e.held = e.held[:0]
	e.heldLocks = e.heldLocks[:0]
	zeroGauge(&e.heldN)
	zeroGauge(&e.heldLocksN)
	e.pins = e.pins[:0]
	e.stats = Stats{}
	e.regs[insn.R1] = code
	e.regs[insn.R10] = stackVABase + StackSize
	return e.loopLowered()
}

func (e *Exec) releaseHeld() {
	// Release in LIFO order, mirroring the runtime's object-table walk.
	for i := len(e.held) - 1; i >= 0; i-- {
		e.held[i].obj.Put()
	}
	e.held = e.held[:0]
	zeroGauge(&e.heldN)
}

// releaseLocks unlocks spin locks still held at cancellation, LIFO. A lock
// held by a cancelled invocation would otherwise starve every other CPU
// and user-space thread spinning on the same heap word.
func (e *Exec) releaseLocks() {
	for i := len(e.heldLocks) - 1; i >= 0; i-- {
		if lk := e.prog.opts.Lock; lk != nil {
			// The unlock can only fail if the lock word itself is gone
			// (heap torn down mid-cancel); nothing left to repair then.
			_ = lk.Unlock(e.heldLocks[i])
		}
	}
	e.heldLocks = e.heldLocks[:0]
	zeroGauge(&e.heldLocksN)
}

// zeroGauge clears a held-count mirror. The gauges are zero on every normal
// exit, so the locked store (an XCHG) is skipped when there is nothing to
// clear; a non-zero value was published by Hold/HoldLock and is cleared by
// a store, so HeldCounts never misses a value the owner published.
func zeroGauge(g *atomic.Int32) {
	if g.Load() != 0 {
		g.Store(0)
	}
}

// fault converts a heap fault into a cancellation (class-2 CPs) and any
// other memory error into a hard error.
func (e *Exec) fault(pc int, err error) error {
	var hf *heap.Fault
	if errors.As(err, &hf) && e.hasHeap {
		return &ExtensionAbort{Kind: CancelFault, PC: pc}
	}
	return fmt.Errorf("vm: insn %d: %w", pc, err)
}

// load reads extension-visible memory at a virtual address.
func (e *Exec) load(addr uint64, size int) (uint64, error) {
	if e.hasHeap && e.extView.Contains(addr) {
		return e.extView.Load(addr, size)
	}
	if off := addr - stackVABase; off < StackSize {
		if off+uint64(size) > StackSize {
			return 0, fmt.Errorf("stack load out of frame at %#x", addr)
		}
		return leLoad(e.stack[off:], size), nil
	}
	if off := addr - ctxVABase; off < uint64(len(e.ctx)) {
		if off+uint64(size) > uint64(len(e.ctx)) {
			return 0, fmt.Errorf("ctx load out of bounds at %#x", addr)
		}
		return leLoad(e.ctx[off:], size), nil
	}
	if idx := (addr - pinVABase) / pinStride; addr >= pinVABase && int(idx) < len(e.pins) {
		buf := e.pins[idx]
		off := (addr - pinVABase) % pinStride
		if off+uint64(size) > uint64(len(buf)) {
			return 0, fmt.Errorf("map value load out of bounds at %#x", addr)
		}
		return leLoad(buf[off:], size), nil
	}
	if addr >= kernel.ObjVABase {
		return 0, nil // kernel object window reads as zero
	}
	// A wild address outside every region: performance-mode unguarded
	// reads land here and trap (SMAP analogue, §4.2).
	return 0, &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
}

func (e *Exec) store(addr uint64, size int, val uint64) error {
	if e.hasHeap && e.extView.Contains(addr) {
		return e.extView.Store(addr, size, val)
	}
	if off := addr - stackVABase; off < StackSize {
		if off+uint64(size) > StackSize {
			return fmt.Errorf("stack store out of frame at %#x", addr)
		}
		leStore(e.stack[off:], size, val)
		return nil
	}
	if off := addr - ctxVABase; off < uint64(len(e.ctx)) {
		if off+uint64(size) > uint64(len(e.ctx)) {
			return fmt.Errorf("ctx store out of bounds at %#x", addr)
		}
		leStore(e.ctx[off:], size, val)
		return nil
	}
	if idx := (addr - pinVABase) / pinStride; addr >= pinVABase && int(idx) < len(e.pins) {
		buf := e.pins[idx]
		off := (addr - pinVABase) % pinStride
		if off+uint64(size) > uint64(len(buf)) {
			return fmt.Errorf("map value store out of bounds at %#x", addr)
		}
		leStore(buf[off:], size, val)
		return nil
	}
	return &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
}

// window resolves the n-byte span at addr against the non-heap regions an
// extension can address — its stack frame, the hook context, a map value
// pinned for this invocation — and returns the bytes themselves. ok is false
// when addr lies in none of them; a span that starts inside a region and
// runs past its end is an error, as it is for load and store (verified code
// and helper contracts never produce one). load and store keep their own
// copy of this dispatch: routed through here, an 8-byte stack load costs
// 6.1 ns instead of 4.6 (BenchmarkStackLoad8).
func (e *Exec) window(addr uint64, n int) (b []byte, ok bool, err error) {
	if off := addr - stackVABase; off < StackSize {
		if off+uint64(n) > StackSize {
			return nil, true, fmt.Errorf("stack access out of frame at %#x", addr)
		}
		return e.stack[off : off+uint64(n)], true, nil
	}
	if off := addr - ctxVABase; off < uint64(len(e.ctx)) {
		if off+uint64(n) > uint64(len(e.ctx)) {
			return nil, true, fmt.Errorf("ctx access out of bounds at %#x", addr)
		}
		return e.ctx[off : off+uint64(n)], true, nil
	}
	if idx := (addr - pinVABase) / pinStride; addr >= pinVABase && int(idx) < len(e.pins) {
		buf := e.pins[idx]
		off := (addr - pinVABase) % pinStride
		if off+uint64(n) > uint64(len(buf)) {
			return nil, true, fmt.Errorf("map value access out of bounds at %#x", addr)
		}
		return buf[off : off+uint64(n)], true, nil
	}
	return nil, false, nil
}

// Read implements kernel.Env: it fills dst from extension-visible memory at
// addr. The region is resolved once for the whole buffer, then the bytes
// are copied (word-wise in the heap). A heap span that faults part-way
// leaves the accessible prefix in dst and returns the *heap.Fault of the
// first inaccessible byte, as byte-at-a-time loads would have.
func (e *Exec) Read(dst []byte, addr uint64) error {
	if len(dst) == 0 {
		return nil
	}
	if e.hasHeap && e.extView.Contains(addr) {
		return e.extView.ReadInto(addr, dst)
	}
	b, ok, err := e.window(addr, len(dst))
	if ok {
		copy(dst, b)
		return err
	}
	if addr >= kernel.ObjVABase {
		clear(dst) // kernel object window reads as zero
		return nil
	}
	return &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
}

// Write implements kernel.Env: it copies src into extension-visible memory
// at addr, with Read's single resolve and fault contract.
func (e *Exec) Write(addr uint64, src []byte) error {
	if len(src) == 0 {
		return nil
	}
	if e.hasHeap && e.extView.Contains(addr) {
		return e.extView.WriteFrom(addr, src)
	}
	b, ok, err := e.window(addr, len(src))
	if ok {
		copy(b, src)
		return err
	}
	return &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
}

// Invocation returns the invocation-sequence word and whether an
// invocation is in flight (the word is odd). Two polls that return the same
// odd word observed the same invocation; the watchdog times a stall by how
// long it keeps seeing one.
func (e *Exec) Invocation() (seq uint64, inFlight bool) {
	seq = e.seq.Load()
	return seq, seq&1 == 1
}

// RequestCancel asks invocation seq of this Exec — a word Invocation
// returned while it was in flight, or that word plus one read while idle,
// which names the Exec's next Run call — to cancel cooperatively: its next
// terminate probe (or lock-spin poll) observes the request and unwinds
// through its object table (§3.3, §4.3). No other invocation can observe
// it. Safe to call from any goroutine.
func (e *Exec) RequestCancel(seq uint64) { e.cancelReq.Store(seq) }

// HeldCounts reports the kernel objects (object-table entries) and spin
// locks this Exec currently holds. It is a diagnostic snapshot for
// post-mortem audits: on a quiesced Exec both counts must be zero, since
// both normal exit and cancellation release everything (§3.3). The counts
// are atomic mirrors of the owner's object table, so the audit may poll
// them while the Exec is mid-invocation on another goroutine (it then sees
// a momentary in-flight value, not garbage).
func (e *Exec) HeldCounts() (refs, locks int) {
	return int(e.heldN.Load()), int(e.heldLocksN.Load())
}

// leLoad reads a size-byte (1, 2, 4 or 8) little-endian value from b.
func leLoad(b []byte, size int) uint64 {
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	}
	return uint64(b[0])
}

// leStore writes the low size bytes (1, 2, 4 or 8) of v to b, little-endian.
func leStore(b []byte, size int, v uint64) {
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
}
