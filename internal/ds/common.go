package ds

import (
	"encoding/binary"
	"fmt"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"

	"kflex"
)

// Operation codes carried in the bench hook's ctx->op field.
const (
	OpUpdate uint64 = 0
	OpLookup uint64 = 1
	OpDelete uint64 = 2
	OpInit   uint64 = 3
)

// Return codes from data-structure extensions.
const (
	RetMiss  = 0
	RetFound = 1
	RetOOM   = 2
)

// Bench hook context offsets.
const (
	ctxOp  = 0
	ctxKey = 8
	ctxVal = 16
	ctxOut = 24
)

// globalsOff is where data-structure globals (heads, roots, array offsets)
// live in the heap; it must match the runtime's reserved layout.
const globalsOff = kflex.GlobalsOff

// Register conventions shared by all data-structure extensions: R9 = ctx,
// R8 = heap base, R7 = key; R6 is the per-structure cursor. R0–R5 are
// scratch (clobbered by helper calls).
const (
	rCtx  = insn.R9
	rHeap = insn.R8
	rKey  = insn.R7
	rCur  = insn.R6
)

// prologue loads ctx/heap/key into the convention registers and dispatches
// on ctx->op to the update/lookup/delete/init labels.
func prologue(b *asm.Builder) {
	b.Mov(rCtx, insn.R1)
	b.Call(kernel.HelperKflexHeapBase)
	b.Mov(rHeap, insn.R0)
	b.Load(rKey, rCtx, ctxKey, 8)
	b.Load(insn.R0, rCtx, ctxOp, 8)
	b.JmpImm(insn.JmpEq, insn.R0, int32(OpUpdate), "update")
	b.JmpImm(insn.JmpEq, insn.R0, int32(OpLookup), "lookup")
	b.JmpImm(insn.JmpEq, insn.R0, int32(OpDelete), "delete")
	b.JmpImm(insn.JmpEq, insn.R0, int32(OpInit), "init")
	b.Ret(RetMiss)
}

// emitMalloc allocates size bytes into R0, jumping to oom when the heap is
// exhausted.
func emitMalloc(b *asm.Builder, size int64, oom string) {
	b.MovImm(insn.R1, size)
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, oom)
}

// emitMallocOff is emitMalloc keeping the block's offset from the heap base
// (a scalar, not a pointer) in the globals word at glob.
func emitMallocOff(b *asm.Builder, size int64, glob int16, oom string) {
	emitMalloc(b, size, oom)
	b.Mov(insn.R1, rHeap)
	b.I(insn.Alu64Reg(insn.AluSub, insn.R0, insn.R1)) // ptr - base = offset
	b.Store(rHeap, glob, insn.R0, 8)
}

// emitWalk follows a chain from rCur to the node whose key word equals rKey,
// jumping to hit with that node in rCur, or to miss at the NULL that ends
// the chain. tmp holds each key read.
func emitWalk(b *asm.Builder, tmp insn.Reg, key, next int16, miss, hit string) {
	loop := b.Scope()("walk")
	b.Label(loop)
	b.JmpImm(insn.JmpEq, rCur, 0, miss)
	b.Load(tmp, rCur, key, 8)
	b.JmpReg(insn.JmpEq, tmp, rKey, hit)
	b.Load(rCur, rCur, next, 8)
	b.Ja(loop)
}

func builderFor(kind Kind) *asm.Builder {
	switch kind {
	case KindLinkedList:
		return listProgram()
	case KindHashMap:
		return hashProgram()
	case KindRBTree:
		return rbProgram()
	case KindSkipList:
		return skipProgram()
	case KindCountMin:
		return sketchProgram(false)
	case KindCountSketch:
		return sketchProgram(true)
	case KindZAdd:
		return zaddProgram()
	}
	// Internal invariant: Kind values are package constants; an unknown one
	// cannot arrive from extension or workload input.
	panic("ds: unknown kind " + string(kind))
}

// Program returns the extension bytecode implementing kind.
func Program(kind Kind) []insn.Instruction {
	return builderFor(kind).MustAssemble()
}

// ProgramSections returns the bytecode together with the label table, which
// locates each operation's instruction range (Table 3 attributes guard
// counts to individual operations).
func ProgramSections(kind Kind) ([]insn.Instruction, map[string]int) {
	b := builderFor(kind)
	return b.MustAssemble(), b.Labels()
}

// HeapSize returns the heap each structure declares.
func HeapSize(kind Kind) uint64 {
	switch kind {
	case KindCountMin, KindCountSketch:
		return 1 << 20
	case KindZAdd:
		return 1 << 27 // the member table beside the skip list
	default:
		return 1 << 26 // 64 MiB: room for Figure 5's 64Ki-element structures
	}
}

// Offloaded wraps a loaded data-structure extension behind the Store
// interface, issuing one extension invocation per operation.
type Offloaded struct {
	Ext    *kflex.Extension
	handle *kflex.Handle
	ctx    []byte

	insns  uint64
	guards uint64
}

// Load loads kind's extension into rt and runs its init operation. perfMode
// enables §3.2's performance mode.
func Load(rt *kflex.Runtime, kind Kind, perfMode bool) (*Offloaded, error) {
	return LoadSpec(rt, kind, func(s *kflex.Spec) { s.PerfMode = perfMode })
}

// LoadSpec verifies, instruments, and loads kind's extension into rt and
// runs its init operation. edit, if not nil, adjusts the spec before the
// load: the ablation knobs, a fault plan, a cancellation policy.
func LoadSpec(rt *kflex.Runtime, kind Kind, edit func(*kflex.Spec)) (*Offloaded, error) {
	spec := kflex.Spec{
		Name:     string(kind),
		Insns:    Program(kind),
		Hook:     kflex.HookBench,
		Mode:     kflex.ModeKFlex,
		HeapSize: HeapSize(kind),
	}
	if edit != nil {
		edit(&spec)
	}
	ext, err := rt.Load(spec)
	if err != nil {
		return nil, err
	}
	return start(ext, kind)
}

// start runs the init operation of kind's loaded extension ext. An init
// that fails — an error, a cancellation, or RetOOM — closes ext, heap and
// all: the caller gets no Offloaded to close it through.
func start(ext *kflex.Extension, kind Kind) (*Offloaded, error) {
	o := &Offloaded{
		Ext:    ext,
		handle: ext.Handle(0),
		ctx:    make([]byte, kflex.HookBench.CtxSize),
	}
	res, err := o.Op(OpInit, 0, 0)
	if err == nil && res.Ret == RetOOM {
		err = fmt.Errorf("ds: %s: init ran out of heap", kind)
	}
	if err != nil {
		ext.Close()
		return nil, err
	}
	return o, nil
}

// Op runs one operation — the one place the bench hook's context is encoded:
// op, key and val in, the out word (Out) cleared. A cancelled invocation is
// an error, returned with the Result that names the cause.
func (o *Offloaded) Op(op, key, val uint64) (res kflex.Result, err error) {
	binary.LittleEndian.PutUint64(o.ctx[ctxOp:], op)
	binary.LittleEndian.PutUint64(o.ctx[ctxKey:], key)
	binary.LittleEndian.PutUint64(o.ctx[ctxVal:], val)
	binary.LittleEndian.PutUint64(o.ctx[ctxOut:], 0)
	if res, err = o.handle.Run(nil, o.ctx); err != nil {
		return res, err
	}
	o.insns += res.Stats.Insns
	o.guards += res.Stats.Guards
	if res.Cancelled != kflex.CancelNone {
		err = fmt.Errorf("ds: operation cancelled (%v)", res.Cancelled)
	}
	return res, err
}

// Out returns the context's out word as the last Op left it: the value a
// lookup found.
func (o *Offloaded) Out() uint64 { return binary.LittleEndian.Uint64(o.ctx[ctxOut:]) }

// TryUpdate inserts or updates a key, surfacing runtime failures — heap
// exhaustion, cancellation — as errors for callers that can degrade
// gracefully (chaos tests, fallback paths).
func (o *Offloaded) TryUpdate(key, val uint64) error {
	res, err := o.Op(OpUpdate, key, val)
	if err != nil {
		return err
	}
	if res.Ret == RetOOM {
		return fmt.Errorf("ds: heap exhausted updating key %d", key)
	}
	return nil
}

// Update implements Store. Errors surface as panics: the bytecode is loaded
// from a static, verified program and benchmarks size their heaps to fit,
// so a failure here is a bug in this repository, not a runtime condition
// the Store interface lets callers handle (use TryUpdate where it is one).
func (o *Offloaded) Update(key, val uint64) {
	if err := o.TryUpdate(key, val); err != nil {
		panic(err)
	}
}

// Lookup implements Store.
func (o *Offloaded) Lookup(key uint64) (uint64, bool) {
	res, err := o.Op(OpLookup, key, 0)
	if err != nil {
		panic(err)
	}
	if res.Ret != RetFound {
		return 0, false
	}
	return o.Out(), true
}

// Delete implements Store.
func (o *Offloaded) Delete(key uint64) bool {
	res, err := o.Op(OpDelete, key, 0)
	if err != nil {
		panic(err)
	}
	return res.Ret == RetFound
}

// Insns returns the cumulative instructions executed across operations.
func (o *Offloaded) Insns() uint64 { return o.insns }

// Guards returns the cumulative guard instructions executed.
func (o *Offloaded) Guards() uint64 { return o.guards }

// Close releases the extension.
func (o *Offloaded) Close() { o.Ext.Close() }
