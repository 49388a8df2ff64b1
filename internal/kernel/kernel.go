// Package kernel simulates the slice of the Linux kernel that KFlex
// extensions interact with: the helper-function interface (with the
// argument/return contracts the verifier enforces for kernel-interface
// compliance, §2.1/§3), extension hooks with their context layouts and
// default return codes (§4.3), refcounted kernel objects with destructors
// (the resources extension cancellation must release, §3.3), and the map
// abstraction the eBPF-compat baseline (BMC) uses.
package kernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ObjKind names a class of kernel object (e.g. "sock").
type ObjKind string

// ObjVABase is the synthetic address range in which kernel-object pointers
// handed to extensions live (the analogue of pointers into kernel structs).
const ObjVABase = 0xffff888000000000

// ObjPtr returns the synthetic extension-visible pointer for obj.
func ObjPtr(o *Object) uint64 { return ObjVABase | o.id<<4 }

// Object is a refcounted kernel resource handed to extensions by acquiring
// helpers. Destructors run either at the matching release helper or during
// extension cancellation via the object table (§3.3).
type Object struct {
	kind    ObjKind
	refs    atomic.Int64
	destroy func()
	id      uint64
}

var objIDs atomic.Uint64

// NewObject returns an object of the given kind with one reference held by
// the kernel itself. destroy (optional) runs when the count drops to zero.
func NewObject(kind ObjKind, destroy func()) *Object {
	o := &Object{kind: kind, destroy: destroy, id: objIDs.Add(1)}
	o.refs.Store(1)
	return o
}

// Get takes a reference.
func (o *Object) Get() *Object {
	if o.refs.Add(1) <= 1 {
		// Internal invariant: lookups hand out objects only while the
		// kernel's own reference is live; extension input cannot reach a
		// destroyed object through a verified program.
		panic("kernel: Get on destroyed object")
	}
	return o
}

// Put drops a reference, running the destructor at zero.
func (o *Object) Put() {
	if n := o.refs.Add(-1); n == 0 {
		if o.destroy != nil {
			o.destroy()
		}
	} else if n < 0 {
		// Internal invariant: the verifier pairs every acquire with one
		// release and cancellation releases each held ref exactly once.
		panic("kernel: refcount underflow")
	}
}

// Refs returns the current reference count.
func (o *Object) Refs() int64 { return o.refs.Load() }

// --- Helper interface contracts ---------------------------------------------

// ArgKind classifies one helper argument for verification.
type ArgKind int

const (
	// ArgNone marks unused trailing argument slots.
	ArgNone ArgKind = iota
	// ArgScalar requires an initialized scalar.
	ArgScalar
	// ArgCtx requires the hook context pointer.
	ArgCtx
	// ArgStackBuf requires a pointer into the extension stack with Size
	// bytes of room; Init additionally requires those bytes be written.
	ArgStackBuf
	// ArgHeapAddr accepts any initialized extension-memory address
	// (heap, stack, map value, or raw scalar); the helper performs its
	// own validated accesses at runtime (kflex_free, spin locks, reply
	// builders).
	ArgHeapAddr
	// ArgObj requires a non-null kernel object of the spec's ObjKind
	// currently held by the extension.
	ArgObj
	// ArgMapID requires a constant scalar naming a registered map.
	ArgMapID
)

// RetKind classifies a helper's return value.
type RetKind int

const (
	// RetScalar is an ordinary integer return.
	RetScalar RetKind = iota
	// RetAcquiredObj returns a kernel object reference (or null); the
	// extension must release it before exit and may not hold it across a
	// loop iteration boundary (§3.1).
	RetAcquiredObj
	// RetHeapPtr returns a pointer into the extension heap (or null),
	// e.g. kflex_malloc.
	RetHeapPtr
	// RetMapValue returns a pointer to a map value (or null) of ValSize
	// bytes.
	RetMapValue
)

// Arg describes one helper argument.
type Arg struct {
	Kind ArgKind
	Size int // ArgStackBuf: byte size of the buffer
	// SizeArg names the 1-based helper argument carrying the buffer's
	// byte length; the verifier requires that argument to be a constant
	// no larger than Size.
	SizeArg int
	Init    bool    // ArgStackBuf: must be initialized (helper reads it)
	ObjKind ObjKind // ArgObj: required object kind
}

// Ret describes a helper return value.
type Ret struct {
	Kind    RetKind
	ObjKind ObjKind // RetAcquiredObj
	ValSize int     // RetMapValue (0 = size of the map argument's values)
	NonNull bool    // RetHeapPtr that can never be NULL (kflex_heap_base)
}

// LockOp marks helpers that acquire or release KFlex spin locks so the
// verifier can enforce lock discipline (§3.1).
type LockOp int

// Lock operations.
const (
	LockNone LockOp = iota
	LockAcquire
	LockRelease
)

// HelperCtx is the execution environment a helper implementation receives.
// The VM builds one per execution context and sets Event per invocation.
type HelperCtx struct {
	// Kernel is the owning kernel instance.
	Kernel *Kernel
	// Heap is the extension view of the program's heap; zero View if the
	// program declared no heap.
	Heap HeapView
	// CPU is the simulated CPU the extension runs on.
	CPU int
	// Event is the hook-specific event payload (e.g. a packet).
	Event any
	// Alloc provides kflex_malloc/kflex_free; nil without a heap.
	Alloc Allocator
	// Lock provides the queue spin-lock operations; nil without a heap.
	Lock Locker
	// Env is the invocation the helper runs in.
	Env
}

// Env is what a helper reaches of the invocation that called it: its
// held-object and held-lock records, its memory, and whether it has been
// cancelled. The VM's execution context implements it.
type Env interface {
	// Hold records an acquired object so cancellation can release it;
	// Unhold removes it at explicit release.
	Hold(obj *Object, ptr uint64)
	Unhold(ptr uint64) *Object
	// HoldLock records a spin lock acquired at ext VA addr so cancellation
	// can release it (the object-table entry for locks, §3.3); ReleaseLock
	// removes the record at explicit unlock.
	HoldLock(addr uint64)
	ReleaseLock(addr uint64)
	// Read and Write access extension-visible memory (stack, heap, map
	// values) by virtual address; helpers are trusted kernel code, so the
	// VM dispatches across regions for them. Each call resolves the
	// region once for the whole buffer and copies word-wise: Read fills
	// the caller's dst, Write copies p in. A heap span that faults
	// part-way has moved the bytes before the first inaccessible one,
	// which the returned *heap.Fault names.
	Read(dst []byte, addr uint64) error
	Write(addr uint64, p []byte) error
	// PinValue exposes a kernel-owned byte buffer (e.g. a map value) to
	// the extension for the remainder of the invocation and returns its
	// synthetic virtual address.
	PinValue(val []byte) uint64
	// Cancelled reports whether the invocation has been cancelled;
	// spinning helpers poll it (§3.4).
	Cancelled() bool
}

// HeapView is the subset of heap.View helpers need; declared as an
// interface to keep package kernel beneath package heap's consumers.
type HeapView interface {
	Base() uint64
}

// Allocator is the KFlex memory allocator interface (§4.1).
type Allocator interface {
	// Malloc returns the extension VA of a block of at least size bytes,
	// or 0 when the heap is exhausted.
	Malloc(cpu int, size uint64) uint64
	// Free returns the block at ext VA addr to the allocator.
	Free(cpu int, addr uint64) error
}

// Locker provides queue-based spin locks on heap words (§3.1).
type Locker interface {
	// Lock acquires the lock at ext VA addr. It returns false if the
	// acquisition was abandoned because inv — the invocation spinning, an
	// Env — was cancelled meanwhile.
	Lock(addr uint64, inv interface{ Cancelled() bool }) bool
	// Unlock releases the lock at ext VA addr.
	Unlock(addr uint64) error
}

// HelperImpl executes a helper. args holds R1–R5.
type HelperImpl func(hc *HelperCtx, args [5]uint64) (uint64, error)

// HelperSpec pairs a helper's verification contract with its implementation.
type HelperSpec struct {
	ID   int32
	Name string
	Args []Arg
	Ret  Ret
	// Releases is the 1-based index of the argument whose object
	// reference this helper releases; 0 means none.
	Releases int
	// KFlexOnly marks helpers unavailable in eBPF-compat mode (the
	// KFlex runtime APIs of Table 2).
	KFlexOnly bool
	// LockOp marks spin-lock acquire/release helpers.
	LockOp LockOp
	Impl   HelperImpl
}

// Registry maps helper IDs to specs. A Kernel owns one; hooks and
// applications extend it before programs are verified.
type Registry struct {
	mu    sync.RWMutex
	specs map[int32]*HelperSpec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[int32]*HelperSpec)}
}

// Register adds a helper spec; re-registering an ID is a programming error.
func (r *Registry) Register(spec *HelperSpec) error {
	if spec.Impl == nil {
		return fmt.Errorf("kernel: helper %q has no implementation", spec.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[spec.ID]; dup {
		return fmt.Errorf("kernel: helper ID %d already registered", spec.ID)
	}
	r.specs[spec.ID] = spec
	return nil
}

// MustRegister is Register for static initialization.
func (r *Registry) MustRegister(spec *HelperSpec) {
	if err := r.Register(spec); err != nil {
		panic(err)
	}
}

// Lookup returns the spec for id.
func (r *Registry) Lookup(id int32) (*HelperSpec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[id]
	return s, ok
}

// IDs returns all registered helper IDs in ascending order.
func (r *Registry) IDs() []int32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]int32, 0, len(r.specs))
	for id := range r.specs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// --- Hooks -------------------------------------------------------------------

// CtxField describes one readable slot of a hook's context structure.
type CtxField struct {
	Off      int
	Size     int
	Writable bool
	Name     string
}

// Hook describes an attachment point for extensions.
type Hook struct {
	Name string
	// CtxSize is the byte size of the context structure.
	CtxSize int
	// Fields lists the accessible slots; any other ctx access is a
	// compliance violation.
	Fields []CtxField
	// DefaultRet is returned when a cancelled extension unwinds (§4.3):
	// deny for security hooks, pass for network hooks.
	DefaultRet uint64
}

// Field returns the field covering [off, off+size), if any.
func (h *Hook) Field(off, size int) (CtxField, bool) {
	for _, f := range h.Fields {
		if off >= f.Off && off+size <= f.Off+f.Size {
			return f, true
		}
	}
	return CtxField{}, false
}

// Standard XDP return codes.
const (
	XDPAborted = 0
	XDPDrop    = 1
	XDPPass    = 2
	XDPTx      = 3
)

// Standard sk_skb verdicts.
const (
	SkDrop = 0
	SkPass = 1
)

// Predefined hooks.
var (
	// HookXDP processes raw frames at the driver (§5.1 attaches the
	// Memcached extension here). Context layout:
	//	u32 data_len  @0
	//	u32 rx_queue  @4
	HookXDP = &Hook{
		Name:    "xdp",
		CtxSize: 8,
		Fields: []CtxField{
			{Off: 0, Size: 4, Name: "data_len"},
			{Off: 4, Size: 4, Name: "rx_queue"},
		},
		DefaultRet: XDPPass,
	}
	// HookSkSkb processes stream payloads after transport processing
	// (§5.1 attaches the Redis extension here). Context layout:
	//	u32 len        @0
	//	u32 local_port @4
	HookSkSkb = &Hook{
		Name:    "sk_skb",
		CtxSize: 8,
		Fields: []CtxField{
			{Off: 0, Size: 4, Name: "len"},
			{Off: 4, Size: 4, Name: "local_port"},
		},
		DefaultRet: SkPass,
	}
	// HookLSM is a security hook: cancelled extensions deny by default.
	HookLSM = &Hook{
		Name:    "lsm",
		CtxSize: 8,
		Fields: []CtxField{
			{Off: 0, Size: 4, Name: "op"},
			{Off: 4, Size: 4, Name: "uid"},
		},
		DefaultRet: ^uint64(0) - 12, // -EACCES
	}
	// HookBench is a synthetic hook for data-structure offloads and
	// microbenchmarks: the context carries an opcode and two operands.
	//	u64 op  @0
	//	u64 a   @8
	//	u64 b   @16
	//	u64 out @24 (writable)
	HookBench = &Hook{
		Name:    "bench",
		CtxSize: 32,
		Fields: []CtxField{
			{Off: 0, Size: 8, Name: "op"},
			{Off: 8, Size: 8, Name: "a"},
			{Off: 16, Size: 8, Name: "b"},
			{Off: 24, Size: 8, Name: "out", Writable: true},
		},
		DefaultRet: 0,
	}
)

// --- Maps --------------------------------------------------------------------

// Map is the eBPF map abstraction (§2.2): fixed key/value geometry,
// kernel-owned storage. BMC builds its look-aside cache from these.
type Map interface {
	KeySize() int
	ValueSize() int
	// Lookup returns the value bytes for key, or nil.
	Lookup(key []byte) []byte
	// Update inserts or replaces key's value.
	Update(key, value []byte) error
	// Delete removes key; it reports whether the key existed.
	Delete(key []byte) bool
}

// --- Kernel ------------------------------------------------------------------

// Kernel aggregates the simulated kernel state shared by extensions:
// helpers, maps, and a monotonic clock.
type Kernel struct {
	Helpers *Registry

	mu    sync.RWMutex
	maps  map[int32]Map
	ticks atomic.Uint64
}

// New returns a kernel with the base helper set registered.
func New() *Kernel {
	k := &Kernel{
		Helpers: NewRegistry(),
		maps:    make(map[int32]Map),
	}
	registerBaseHelpers(k)
	return k
}

// Now returns the kernel time: a tick counter that advances by one per
// read, so bpf_ktime_get_ns is monotonic and never reads the wall clock.
func (k *Kernel) Now() uint64 { return k.ticks.Add(1) }

// AddMap registers a map under id.
func (k *Kernel) AddMap(id int32, m Map) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, dup := k.maps[id]; dup {
		return fmt.Errorf("kernel: map ID %d already registered", id)
	}
	k.maps[id] = m
	return nil
}

// Map returns the map registered under id.
func (k *Kernel) Map(id int32) (Map, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	m, ok := k.maps[id]
	return m, ok
}
