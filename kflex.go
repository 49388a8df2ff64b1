// Package kflex is a userspace implementation of KFlex, the kernel
// extension framework of "Fast, Flexible, and Practical Kernel Extensions"
// (SOSP 2024). KFlex separates extension safety into two sub-properties and
// enforces each with a bespoke mechanism:
//
//   - kernel-interface compliance — accesses to kernel-owned resources —
//     is enforced by static bytecode verification (the eBPF model);
//   - extension correctness — memory safety within the extension's own
//     heap and guaranteed termination — is enforced by lightweight runtime
//     checks: SFI address sanitization co-designed with the verifier's
//     range analysis, and extension cancellations driven by *terminate
//     probes and per-cancellation-point object tables.
//
// The package wires the full pipeline of the paper's Figure 1: programs
// (written against kflex/asm and kflex/insn) are verified, instrumented by
// the Kie engine, and executed by a runtime that provides extension heaps,
// the KFlex memory allocator, queue-based spin locks, watchdog-driven
// cancellation, and transparent heap sharing with user space.
//
// A minimal end-to-end use:
//
//	rt := kflex.NewRuntime()
//	ext, err := rt.Load(kflex.Spec{
//		Name:     "hello",
//		Insns:    prog,                // built with kflex/asm
//		Hook:     kflex.HookBench,
//		Mode:     kflex.ModeKFlex,
//		HeapSize: 1 << 20,
//	})
//	h := ext.Handle(0)
//	res, err := h.Run(nil, make([]byte, kflex.HookBench.CtxSize))
package kflex

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kflex/insn"
	"kflex/internal/alloc"
	"kflex/internal/compile"
	"kflex/internal/faultinject"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/kie"
	"kflex/internal/locks"
	"kflex/internal/maps"
	"kflex/internal/verifier"
	"kflex/internal/vm"
	"kflex/internal/watchdog"
)

// Mode selects how an extension is verified and executed.
type Mode int

const (
	// ModeEBPF verifies and runs the program as a vanilla eBPF extension:
	// no extension heap, provable termination required, single lock.
	// Existing eBPF extensions load unmodified (§3: backward compatible).
	ModeEBPF Mode = iota
	// ModeKFlex enables the KFlex runtime: extension heaps with SFI,
	// unbounded loops with cancellation, multiple locks, the Table 2 API.
	ModeKFlex
)

// Re-exported hook definitions (see kernel package for layouts).
var (
	HookXDP   = kernel.HookXDP
	HookSkSkb = kernel.HookSkSkb
	HookLSM   = kernel.HookLSM
	HookBench = kernel.HookBench
)

// Result is the outcome of one extension invocation.
type Result = vm.Result

// Stats re-exports the per-invocation work counters.
type Stats = vm.Stats

// CancelKind re-exports the cancellation cause classification.
type CancelKind = vm.CancelKind

// Cancellation causes.
const (
	CancelNone      = vm.CancelNone
	CancelTerminate = vm.CancelTerminate
	CancelFault     = vm.CancelFault
	CancelLock      = vm.CancelLock
	CancelHelper    = vm.CancelHelper
)

// ErrExtensionAbort matches (via errors.Is) the typed aborts the VM raises
// at cancellation points; Result.Abort carries the fault kind and PC.
var ErrExtensionAbort = vm.ErrExtensionAbort

// ErrFallback is the one sentinel for a retired extension — unloaded by its
// cancellation policy (Spec.CancelThreshold, §4.3) or by its owner
// (Extension.Unload): the caller should serve the request on its user-space
// path instead, the paper's offload-miss path (§5). Handle.Run returns it
// as a *DegradedError, the supervisor's open circuit as an *OpenError; both
// match it via errors.Is.
var ErrFallback = vm.ErrUnloaded

// DegradedError is the error Handle.Run returns for a retired extension. It
// names the extension and its completed-cancellation count, so callers
// multiplexing several extensions can tell which one to fall back for. It
// matches ErrFallback via errors.Is.
type DegradedError struct {
	// Ext is the Spec.Name of the retired extension.
	Ext string
	// Cancellations is the extension's completed-cancellation count.
	Cancellations uint64
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("kflex: extension %q retired after %d cancellations, serve via user-space fallback",
		e.Ext, e.Cancellations)
}

// Is makes errors.Is(err, ErrFallback) hold for every DegradedError.
func (e *DegradedError) Is(target error) bool { return target == ErrFallback }

// DefaultNumCPUs is the Spec.NumCPUs a spec that leaves it zero is loaded
// with: the size of the extension's per-CPU handle-slot table.
const DefaultNumCPUs = 8

// CancelNever is the Spec.CancelThreshold no run reaches: every
// cancellation stays scoped to its invocation and the extension is never
// retired by policy.
const CancelNever = math.MaxUint64

// Spec describes an extension to load.
type Spec struct {
	// Name labels the extension in errors and reports.
	Name string
	// Insns is the extension bytecode (kflex/asm builds it; kflex/insn
	// Decode accepts eBPF wire format).
	Insns []insn.Instruction
	// Hook is the attachment point; it defines the context layout and
	// the default return code used on cancellation.
	Hook *kernel.Hook
	// Mode selects eBPF-compat or KFlex verification and runtime.
	Mode Mode
	// HeapSize declares the extension heap in bytes (power of two);
	// the kflex_heap(size) macro of Table 2. Zero means no heap
	// (required for ModeEBPF).
	HeapSize uint64
	// ShareHeap maps the heap into user space and enables
	// translate-on-store so applications walk extension data structures
	// through ordinary pointers (§3.4).
	ShareHeap bool
	// PerfMode trades confidentiality for speed: read accesses are not
	// sanitized; stray reads trap and cancel (§3.2, §4.2).
	PerfMode bool
	// QuantumInsns is a deterministic per-invocation instruction budget
	// enforced at cancellation probes; zero relies on the wall-clock
	// watchdog only.
	QuantumInsns uint64
	// Callback optionally post-processes the return code of a cancelled
	// invocation (§4.3). It is verified under callback restrictions: no
	// heap access, no unbounded loops.
	Callback []insn.Instruction
	// NumCPUs is the number of per-CPU execution contexts, and allocator
	// caches, Load builds (default DefaultNumCPUs). Handle CPU indices
	// should stay below it.
	NumCPUs int
	// DisableElision forces an SFI guard on every heap access, ignoring
	// the range analysis — the §5.4 ablation baseline.
	DisableElision bool
	// CancelThreshold is the cancellation policy in one number: the
	// extension is retired — unloaded on every CPU, Handle.Run returning
	// ErrFallback from then on (§5's offload miss) — when its completed
	// cancellations reach this count. 0 and 1 are the paper's policy (§4.3:
	// the first cancellation unloads); N > 1 keeps the first N-1
	// cancellations scoped to the invocation that faulted (the paper's
	// future work); CancelNever never retires.
	CancelThreshold uint64
	// FaultPlan attaches a deterministic fault-injection plan to every
	// layer of this extension's runtime (chaos testing); nil — the
	// production case — keeps all injection sites on their nil-check
	// fast path.
	FaultPlan *faultinject.Plan
}

// Stage describes one pipeline stage of a Load: how long it ran, whether
// its artifact came from the Runtime's compile cache, and the artifact's
// size in stage-specific units (instructions for decode/verify/instrument/
// lower/link, 4 KiB pages for heap).
type Stage struct {
	Name     string
	Duration time.Duration
	Cached   bool
	Out      int
}

// PipelineInfo describes how an extension was built: the staged pipeline
// decode → verify → instrument → lower → heap → link and the spec
// fingerprint the compile cache is keyed by.
type PipelineInfo struct {
	SpecHash uint64
	// CacheHit reports that verify/instrument/lower artifacts were reused
	// from a previous Load of an identical spec (the supervisor's cold
	// reload path: fresh heap, re-link only).
	CacheHit bool
	Stages   []Stage
}

// record appends the Stage named name — the one place a Stage record is
// made. A stage that ran passes the time it started; one whose artifact came
// from the compile cache ran nothing, passes the zero time, and is recorded
// as Cached with no duration.
func (p *PipelineInfo) record(name string, start time.Time, out int) {
	st := Stage{Name: name, Cached: start.IsZero(), Out: out}
	if !st.Cached {
		st.Duration = time.Since(start)
	}
	p.Stages = append(p.Stages, st)
}

// fromCache is the start time of a stage that did not run.
var fromCache time.Time

// compiled is what compile produces and the compile cache holds: every
// artifact of a spec that does not depend on a heap — the verifier analysis,
// the Kie instrumentation report, the position-independent lowered unit and
// the cancellation callback's own analysis, report and unit (nil without
// one). None of them embed heap addresses or helper pointers, so link binds
// them to any heap unchanged.
//
// from is the part of the spec they were compiled from — what
// specFingerprint hashes. A cache hit skips the verifier, so it is decided
// by comparing from, never by the 64-bit fingerprint alone.
type compiled struct {
	analysis *verifier.Analysis
	report   *kie.Report
	unit     *compile.Unit
	callback *compiled
	from     compileInput
}

// compileInput is every part of a Spec that verification, instrumentation
// or lowering reads.
type compileInput struct {
	insns, callback []insn.Instruction
	hook            string
	// heapSize is Spec.HeapSize; flags packs Mode == ModeKFlex, ShareHeap,
	// PerfMode and DisableElision into bits 0-3.
	heapSize, flags uint64
}

// compileInputOf reads spec, whose Hook Load has checked.
func compileInputOf(spec Spec) compileInput {
	in := compileInput{insns: spec.Insns, callback: spec.Callback, hook: spec.Hook.Name, heapSize: spec.HeapSize}
	for i, set := range []bool{spec.Mode == ModeKFlex, spec.ShareHeap, spec.PerfMode, spec.DisableElision} {
		if set {
			in.flags |= 1 << i
		}
	}
	return in
}

func (a compileInput) equal(b compileInput) bool {
	return a.flags == b.flags && a.heapSize == b.heapSize && a.hook == b.hook &&
		slices.Equal(a.insns, b.insns) && slices.Equal(a.callback, b.callback)
}

// specFingerprint hashes everything the compiled artifacts depend on: the
// program and callback text plus every spec knob that changes verification,
// instrumentation, or lowering. The knobs that bind at link (QuantumInsns,
// NumCPUs, CancelThreshold, FaultPlan) are deliberately excluded —
// they must not defeat the cache.
func specFingerprint(in compileInput) uint64 {
	const prime64 = 1099511628211
	h := insn.Fingerprint(in.insns)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(in.flags)
	mix(in.heapSize)
	mix(insn.Fingerprint(in.callback))
	for _, b := range []byte(in.hook) {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Runtime is the simulated kernel environment extensions load into.
type Runtime struct {
	kern *kernel.Kernel

	// cacheMu guards cache, the per-Runtime compile cache keyed by spec
	// fingerprint. Helper registration is monotonic within one Runtime,
	// so artifacts verified against an earlier helper set stay valid.
	cacheMu sync.Mutex
	cache   map[uint64]*compiled
}

// NewRuntime creates a runtime with the base helper set registered.
func NewRuntime() *Runtime {
	return &Runtime{kern: kernel.New(), cache: make(map[uint64]*compiled)}
}

// Kernel exposes the underlying kernel instance (helper registration for
// hook-specific helpers, map registration, clock control).
func (r *Runtime) Kernel() *kernel.Kernel { return r.kern }

// NewLRUMap registers an eBPF LRU hash map under id.
func (r *Runtime) NewLRUMap(id int32, capacity, keySize, valueSize int) (*maps.LRU, error) {
	m, err := maps.NewLRU(capacity, keySize, valueSize)
	if err != nil {
		return nil, err
	}
	return m, r.kern.AddMap(id, m)
}

// Extension is a loaded, instrumented, runnable extension.
type Extension struct {
	name     string
	rt       *Runtime
	prog     *vm.Program
	heap     *heap.Heap
	alloc    *alloc.Allocator
	extLocks *locks.Locks
	// art is what compile made of the spec — shared, through the Runtime's
	// compile cache, with every other extension loaded from the same spec.
	art      *compiled
	pipeline PipelineInfo

	// execs is the per-CPU handle table: one Handle, and with it one
	// vm.Exec, per simulated CPU (§3.3), all built by Load and never
	// changed after, so Handle(cpu) is an index and whatever walks the
	// table — the watchdog, AuditHeld — sees every context there will be.
	execs []*Handle
	// wd is the active wall-clock watchdog (nil when not monitoring);
	// atomic so concurrent Start/StopWatchdog calls settle on one.
	wd atomic.Pointer[watchdog.Watchdog]

	fault *faultinject.Plan
}

// Load builds an extension through the staged pipeline
//
//	decode → verify → instrument → lower → heap → link
//
// (Figure 1's three steps, with the paper's JIT lowering, §4.2, made an
// explicit stage) in two halves. compile runs the first four: decode
// fingerprints the spec; verify proves kernel-interface compliance; instrument
// runs the Kie engine; lower pre-decodes the instrumented program into the
// fused lowered ISA. Its artifacts depend on no heap and are cached per Runtime
// keyed by the spec fingerprint, so reloading an unchanged spec — the
// supervisor's cold reload — compiles nothing. link runs the last two:
// heap builds the heap, its allocator and lock table; link binds the
// artifacts to them and to the resolved helper table and builds every per-CPU
// execution context.
func (r *Runtime) Load(spec Spec) (*Extension, error) {
	if spec.Hook == nil {
		return nil, fmt.Errorf("kflex: %s: Spec.Hook is required", spec.Name)
	}
	if spec.Mode == ModeEBPF && spec.HeapSize != 0 {
		return nil, fmt.Errorf("kflex: %s: heaps require ModeKFlex", spec.Name)
	}
	if spec.NumCPUs <= 0 {
		spec.NumCPUs = DefaultNumCPUs
	}
	var pl PipelineInfo
	art, err := r.compile(spec, &pl)
	if err != nil {
		return nil, err
	}
	return r.link(art, spec, pl)
}

// compile returns the heap-independent artifacts of spec, from the compile
// cache when an identical spec (by fingerprint: program, callback and every
// knob the verifier, Kie or the lowering reads) was compiled on this Runtime
// before, and records the decode, verify, instrument and lower stages in pl.
func (r *Runtime) compile(spec Spec, pl *PipelineInfo) (*compiled, error) {
	start := time.Now()
	in := compileInputOf(spec)
	pl.SpecHash = specFingerprint(in)
	pl.record("decode", start, len(spec.Insns))

	r.cacheMu.Lock()
	art := r.cache[pl.SpecHash]
	r.cacheMu.Unlock()
	// An entry compiled from something else collided on the fingerprint: a
	// miss. What is compiled below replaces it in the cache; extensions
	// already linked to it keep their own pointer.
	if art != nil && art.from.equal(in) {
		// The records carry the cached artifacts' sizes, so callers still
		// see the pipeline's shape.
		pl.CacheHit = true
		pl.record("verify", fromCache, len(spec.Insns))
		pl.record("instrument", fromCache, len(art.report.Prog))
		pl.record("lower", fromCache, len(art.unit.Code))
		return art, nil
	}

	// Stage: verify — the program and, under its own restrictions, the
	// cancellation callback.
	vmode := verifier.ModeEBPF
	if spec.Mode == ModeKFlex {
		vmode = verifier.ModeKFlex
	}
	art = &compiled{from: in}
	var err error
	start = time.Now()
	art.analysis, err = verifier.Verify(spec.Insns, verifier.Config{
		Mode:           vmode,
		Hook:           spec.Hook,
		Kernel:         r.kern,
		HeapSize:       spec.HeapSize,
		ShareHeap:      spec.ShareHeap,
		PerfMode:       spec.PerfMode,
		DisableElision: spec.DisableElision,
	})
	if err != nil {
		return nil, fmt.Errorf("kflex: %s: %w", spec.Name, err)
	}
	if len(spec.Callback) > 0 {
		if art.callback, err = r.loadCallback(spec); err != nil {
			return nil, fmt.Errorf("kflex: %s: callback: %w", spec.Name, err)
		}
	}
	pl.record("verify", start, len(spec.Insns))

	// Stage: instrument.
	start = time.Now()
	if art.report, err = kie.Instrument(art.analysis); err != nil {
		return nil, fmt.Errorf("kflex: %s: %w", spec.Name, err)
	}
	pl.record("instrument", start, len(art.report.Prog))

	// Stage: lower.
	start = time.Now()
	if art.unit, err = compile.Lower(art.report); err != nil {
		return nil, fmt.Errorf("kflex: %s: lower: %w", spec.Name, err)
	}
	pl.record("lower", start, len(art.unit.Code))

	r.cacheMu.Lock()
	r.cache[pl.SpecHash] = art
	r.cacheMu.Unlock()
	return art, nil
}

// loadCallback verifies a cancellation callback under its restrictions
// (§4.3: no cancellation points, no unbounded loops), instruments it — a
// formality, since a program with no heap and no unbounded loop gets no
// guard and no probe — and lowers it. Only compile calls it, on a cache miss.
func (r *Runtime) loadCallback(spec Spec) (*compiled, error) {
	cb := &compiled{}
	var err error
	if cb.analysis, err = verifier.Verify(spec.Callback, verifier.Config{
		Mode:     verifier.ModeEBPF,
		Kernel:   r.kern,
		ScalarR1: true,
	}); err != nil {
		return nil, err
	}
	if cb.report, err = kie.Instrument(cb.analysis); err != nil {
		return nil, err
	}
	if cb.unit, err = compile.Lower(cb.report); err != nil {
		return nil, err
	}
	return cb, nil
}

// link binds compiled artifacts to one extension instance — everything a
// Spec says that the compile cache is not keyed by — and records the heap and
// link stages. Stage heap: the heap, its allocator and the lock table. Stage
// link: the lowered unit resolved against the heap constants and the helper
// table, the VM program with its callback, and every per-CPU execution
// context.
func (r *Runtime) link(art *compiled, spec Spec, pl PipelineInfo) (*Extension, error) {
	ext := &Extension{
		name:  spec.Name,
		rt:    r,
		art:   art,
		execs: make([]*Handle, spec.NumCPUs),
		fault: spec.FaultPlan,
	}
	opts := vm.Options{
		Hook:            spec.Hook,
		Kernel:          r.kern,
		QuantumInsns:    spec.QuantumInsns,
		CancelThreshold: spec.CancelThreshold,
		Fault:           spec.FaultPlan,
	}
	lk := compile.Linkage{Helpers: r.kern.Helpers}

	start := time.Now()
	if spec.HeapSize > 0 {
		h, err := heap.New(spec.HeapSize)
		if err != nil {
			return nil, fmt.Errorf("kflex: %s: %w", spec.Name, err)
		}
		// One extra allocator CPU slot serves user-space allocations
		// for co-designed applications (§5.3).
		ext.heap, ext.alloc = h, alloc.New(h, spec.NumCPUs+1)
		h.SetFaultPlan(spec.FaultPlan)
		ext.alloc.SetFaultPlan(spec.FaultPlan)
		ext.extLocks = locks.New(h.ExtView())
		ext.extLocks.SetFaultPlan(spec.FaultPlan)
		opts.Heap = h
		opts.Alloc = ext.alloc
		opts.Lock = ext.extLocks
		lk.HeapBase = h.ExtBase()
		lk.HeapMask = h.Mask()
		lk.UserBase = h.UserBase()
	}
	pl.record("heap", start, int(spec.HeapSize/heap.PageSize))

	start = time.Now()
	var err error
	if opts.Lowered, err = art.unit.Link(lk); err != nil {
		return nil, fmt.Errorf("kflex: %s: link: %w", spec.Name, err)
	}
	if art.callback != nil {
		cb := vm.Options{Hook: spec.Hook, Kernel: r.kern}
		if cb.Lowered, err = art.callback.unit.Link(compile.Linkage{Helpers: r.kern.Helpers}); err == nil {
			opts.Callback, err = vm.New(cb)
		}
		if err != nil {
			return nil, fmt.Errorf("kflex: %s: callback: %w", spec.Name, err)
		}
	}
	if ext.prog, err = vm.New(opts); err != nil {
		return nil, fmt.Errorf("kflex: %s: %w", spec.Name, err)
	}
	for cpu := range ext.execs {
		ext.execs[cpu] = &Handle{exec: ext.prog.NewExec(cpu), ext: ext}
	}
	pl.record("link", start, len(art.report.Prog))
	ext.pipeline = pl
	return ext, nil
}

// Pipeline returns the staged-pipeline record of this extension's Load:
// per-stage timings and artifact sizes, the spec fingerprint and whether the
// compile cache was hit.
func (e *Extension) Pipeline() PipelineInfo { return e.pipeline }

// LoweredMetrics returns the lowering metrics (stream lengths and the
// clusters' joins by kind). ok is always true: every extension is lowered.
func (e *Extension) LoweredMetrics() (m compile.Metrics, ok bool) {
	return e.art.unit.Metrics, true
}

// Handle returns the execution handle bound to simulated CPU cpu (indices
// wrap modulo Spec.NumCPUs). A Handle is single-goroutine: it owns one
// per-CPU execution context (register file, stack, pin table), so two
// goroutines must never drive the same CPU index concurrently — the same
// exclusivity real per-CPU kernel contexts impose. Distinct CPUs are fully
// independent: one goroutine per CPU each calling Run is the intended
// parallel serving loop.
//
// Every Handle was built by Load; resolving one is an index — no lock, no
// allocation — so per-op re-resolution in a hot serving loop is free.
func (e *Extension) Handle(cpu int) *Handle {
	idx := cpu % len(e.execs)
	if idx < 0 {
		idx += len(e.execs)
	}
	return e.execs[idx]
}

// Handle runs extension invocations on one simulated CPU. A Handle is
// single-goroutine: drive it from exactly one worker at a time (the
// per-CPU exclusivity contract documented on Extension.Handle). Handles
// for distinct CPUs share no mutable state and run fully in parallel;
// the cross-CPU facts they touch — the retirement flag and the cancellation
// counter — are atomics.
type Handle struct {
	exec *vm.Exec
	ext  *Extension
}

// Extension returns the extension this handle executes.
func (h *Handle) Extension() *Extension { return h.ext }

// Run invokes the extension for one event. ctx must match the hook's
// context size; event is the hook-specific payload (e.g. a packet). Once
// the extension is retired (see Spec.CancelThreshold, Extension.Unload),
// Run returns a *DegradedError, matching ErrFallback, without executing.
func (h *Handle) Run(event any, ctx []byte) (Result, error) {
	res, err := h.exec.Run(event, ctx)
	if err == ErrFallback {
		err = &DegradedError{Ext: h.ext.name, Cancellations: h.ext.prog.Cancels()}
	}
	return res, err
}

// RunContext is Run with caller deadline propagation (§4.3): when ctx is
// cancelled or its deadline expires mid-run, this invocation — and no
// other — is asked to cancel, exactly as the watchdog asks a stalled one:
// it stops at its next terminate probe or lock spin, releases held kernel
// objects via its object table, and unwinds instead of blocking the caller.
// The completed cancellation counts toward Spec.CancelThreshold like any
// other.
//
// An already-expired ctx returns ctx.Err() without executing. A mid-run
// expiry surfaces as a cancelled Result (Cancelled == CancelTerminate) with
// the hook's default return code.
func (h *Handle) RunContext(ctx context.Context, event any, hctx []byte) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if ctx.Done() == nil {
		// No deadline or cancellation to propagate.
		return h.Run(event, hctx)
	}
	// The handle is idle and ours, so the Run below is its next invocation.
	// A request that fires after that Run returned names a word no later
	// invocation runs under: nothing to clear, nothing to wait for.
	seq, _ := h.exec.Invocation()
	stop := context.AfterFunc(ctx, func() { h.exec.RequestCancel(seq + 1) })
	defer stop()
	return h.Run(event, hctx)
}

// Report returns the Kie instrumentation report (guard/elision statistics,
// cancellation points, object tables).
func (e *Extension) Report() *kie.Report { return e.art.report }

// Analysis returns the verifier's analysis.
func (e *Extension) Analysis() *verifier.Analysis { return e.art.analysis }

// Heap returns the extension heap (nil without one).
func (e *Extension) Heap() *heap.Heap { return e.heap }

// Alloc returns the KFlex memory allocator (nil without a heap).
func (e *Extension) Alloc() *alloc.Allocator { return e.alloc }

// Unloaded reports whether the extension has been retired, by its
// cancellation policy or by Unload.
func (e *Extension) Unloaded() bool { return e.prog.Unloaded() }

// Revive returns a retired extension to service with its heap, allocator and
// handles as they are, and its cancellation count back at zero. The caller
// must know that no invocation is in flight — every Run that was running at
// the retirement has returned — and that the heap is consistent; the
// supervisor's warm reload calls it after a drained, clean audit.
func (e *Extension) Revive() { e.prog.Revive() }

// Unload retires the extension: subsequent Runs return a *DegradedError,
// and in-flight invocations on every CPU unwind at their next probe or lock
// spin, which read the retirement flag. Idempotent and race-free:
// concurrent calls — including the threshold's unload racing a manual one,
// or Unload during Run — retire the extension exactly once; Unload reports
// whether this call performed the transition.
func (e *Extension) Unload() bool { return e.prog.Unload() }

// Name returns the Spec.Name the extension was loaded under.
func (e *Extension) Name() string { return e.name }

// NumCPUs returns the size of the per-CPU handle slot table — the number
// of simulated CPUs the extension can be driven on. The supervisor's
// cross-CPU migration uses it to validate target slots.
func (e *Extension) NumCPUs() int { return len(e.execs) }

// AuditHeld sums kernel-object references and extension locks currently
// held across the extension's handles. Both must be zero when no
// invocation is in flight — the object-table unwinding guarantee (§3.4);
// the supervisor audits this before quarantining a heap.
func (e *Extension) AuditHeld() (refs, locksHeld int) {
	for _, h := range e.execs {
		r, l := h.exec.HeldCounts()
		refs += r
		locksHeld += l
	}
	return refs, locksHeld
}

// ExtLocks returns the extension-view spin-lock operations (nil without a
// heap); chaos tests use it to assert no lock is left held.
func (e *Extension) ExtLocks() *locks.Locks { return e.extLocks }

// Cancels returns the number of completed cancellations.
func (e *Extension) Cancels() uint64 { return e.prog.Cancels() }

// StartWatchdog begins wall-clock stall monitoring with the given quantum
// (§4.3; the paper's lockup watchdogs operate at second granularity) of
// every per-CPU execution context. A second call while monitoring is a
// no-op.
func (e *Extension) StartWatchdog(quantum, poll time.Duration) {
	execs := make([]*vm.Exec, len(e.execs))
	for i, h := range e.execs {
		execs[i] = h.exec
	}
	wd := watchdog.New(quantum, poll, execs)
	wd.SetFaultPlan(e.fault)
	if e.wd.CompareAndSwap(nil, wd) {
		wd.Start()
	}
}

// StopWatchdog halts stall monitoring; Close calls it.
func (e *Extension) StopWatchdog() {
	if wd := e.wd.Swap(nil); wd != nil {
		wd.Stop()
	}
}

// Close releases the extension's resources. The heap is closed here — after
// cancellation it intentionally outlives the extension so user-space
// mappings keep working until the owner closes it (§3.4) — and every access
// through any view of it faults from then on. Its backing memory returns
// for reuse only when the last view is gone.
func (e *Extension) Close() {
	e.StopWatchdog()
	if e.heap != nil {
		e.heap.Close()
	}
}

// --- User-space co-design surface (§3.4, §5.3) --------------------------------

// UserView returns the user-space mapping of the extension heap for
// co-designed applications. With ShareHeap, pointers the extension stores
// are already user VAs (translate-on-store), so user code dereferences them
// directly.
func (e *Extension) UserView() (heap.View, error) {
	if e.heap == nil {
		return heap.View{}, fmt.Errorf("kflex: %s has no heap", e.name)
	}
	return e.heap.UserView(), nil
}

// UserLocks returns spin-lock operations over the user mapping, for
// synchronizing with the extension through shared locks.
func (e *Extension) UserLocks() (*locks.Locks, error) {
	if e.heap == nil {
		return nil, fmt.Errorf("kflex: %s has no heap", e.name)
	}
	return locks.New(e.heap.UserView()), nil
}

// UserMalloc allocates extension-heap memory on behalf of user-space code
// and returns its user VA (the paper implements the allocator backend in
// user space; co-designed applications allocate from the same pool, §4.1).
func (e *Extension) UserMalloc(size uint64) (uint64, error) {
	if e.alloc == nil {
		return 0, fmt.Errorf("kflex: %s has no heap", e.name)
	}
	addr := e.alloc.Malloc(e.NumCPUs(), size)
	if addr == 0 {
		return 0, fmt.Errorf("kflex: %s: heap exhausted", e.name)
	}
	return e.heap.TranslateToUser(addr), nil
}

// UserFree releases a block by its user VA.
func (e *Extension) UserFree(userAddr uint64) error {
	if e.alloc == nil {
		return fmt.Errorf("kflex: %s has no heap", e.name)
	}
	return e.alloc.Free(e.NumCPUs(), e.heap.TranslateToExt(userAddr))
}

// GlobalsOff is the heap offset of the extension-globals area; the first
// page is runtime-reserved (populated at load; its first word is
// vm.TerminateWordOff, which nothing stores to) and allocations start at the
// next page.
const GlobalsOff = 64
