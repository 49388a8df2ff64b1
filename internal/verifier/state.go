// Package verifier implements KFlex's static analysis (§3 of the paper).
// It reuses the eBPF verification model — symbolic execution over an
// abstract register state combining tristate numbers with signed/unsigned
// interval bounds — to enforce kernel-interface compliance, and produces the
// facts the Kie instrumentation engine consumes: which memory accesses touch
// the extension heap, which of those are provably in-bounds (guard elision,
// §3.2/§5.4), which loop back edges need cancellation probes, and the
// per-cancellation-point object tables (§3.3).
package verifier

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/tnum"
)

// StackSize is the extension stack frame size, matching eBPF.
const StackSize = 512

// RegType classifies the abstract value held by a register.
type RegType uint8

// Register value classes.
const (
	// TypeInvalid marks uninitialized or clobbered registers.
	TypeInvalid RegType = iota
	// TypeScalar is an integer with tnum + interval tracking.
	TypeScalar
	// TypeCtx is the hook context pointer (R1 at entry).
	TypeCtx
	// TypeStack is a pointer into the stack frame at fixed offset Off
	// from the frame top (R10).
	TypeStack
	// TypeHeap is a sanitized extension-heap pointer with accumulated
	// delta bounds [DMin, DMax] since the last guard.
	TypeHeap
	// TypeMapValue is a pointer to a map value of ValSize bytes at fixed
	// offset Off.
	TypeMapValue
	// TypeObj is a kernel object pointer acquired at RefSite.
	TypeObj
)

func (t RegType) String() string {
	switch t {
	case TypeInvalid:
		return "invalid"
	case TypeScalar:
		return "scalar"
	case TypeCtx:
		return "ctx"
	case TypeStack:
		return "fp"
	case TypeHeap:
		return "heap_ptr"
	case TypeMapValue:
		return "map_value"
	case TypeObj:
		return "kernel_obj"
	}
	return "?"
}

// RegState is the abstract value of one register.
type RegState struct {
	Type RegType

	// Scalar tracking (TypeScalar).
	Tnum       tnum.T
	SMin, SMax int64
	UMin, UMax uint64

	// Pointer tracking.
	Off        int64          // TypeStack / TypeMapValue fixed offset
	DMin, DMax int64          // TypeHeap delta bounds since sanitization
	ValSize    int64          // TypeMapValue value size
	ObjKind    kernel.ObjKind // TypeObj object class
	RefSite    int            // TypeObj acquisition site (insn index)
	MaybeNull  bool           // TypeHeap / TypeMapValue / TypeObj
	// Adjusted marks a heap pointer that has been manipulated by scalar
	// arithmetic since its last sanitization. Accesses through adjusted
	// pointers are the candidates range analysis can elide guards for
	// (Table 3 counts exactly these).
	Adjusted bool
}

func unknownScalar() RegState {
	return RegState{
		Type: TypeScalar,
		Tnum: tnum.Unknown,
		SMin: math.MinInt64, SMax: math.MaxInt64,
		UMin: 0, UMax: math.MaxUint64,
	}
}

func constScalar(v uint64) RegState {
	return RegState{
		Type: TypeScalar,
		Tnum: tnum.Const(v),
		SMin: int64(v), SMax: int64(v),
		UMin: v, UMax: v,
	}
}

// IsConst reports whether the register is a known scalar constant.
func (r *RegState) IsConst() (uint64, bool) {
	if r.Type == TypeScalar && r.Tnum.IsConst() {
		return r.Tnum.Value, true
	}
	return 0, false
}

// IsNullConst reports whether the register is scalar zero (the NULL the
// verifier compares maybe-null pointers against).
func (r *RegState) IsNullConst() bool {
	v, ok := r.IsConst()
	return ok && v == 0
}

// deduceBounds tightens interval bounds from the tnum and vice versa,
// keeping the two representations consistent (the kernel's reg_bounds_sync).
func (r *RegState) deduceBounds() {
	if r.Type != TypeScalar {
		return
	}
	r.UMin = max(r.UMin, r.Tnum.Min())
	r.UMax = min(r.UMax, r.Tnum.Max())
	// When the whole unsigned range fits in the non-negative signed half,
	// unsigned bounds refine signed ones.
	if r.UMax <= math.MaxInt64 {
		r.SMax = min(r.SMax, int64(r.UMax))
		r.SMin = max(r.SMin, int64(r.UMin))
	}
	// A provably non-negative signed range refines the unsigned one.
	if r.SMin >= 0 {
		r.UMin = max(r.UMin, uint64(r.SMin))
		r.UMax = min(r.UMax, uint64(r.SMax))
	}
	// A degenerate interval signals an upstream contradiction (e.g. an
	// infeasible branch refinement); fall back to the sound top element.
	if r.UMin > r.UMax || r.SMin > r.SMax {
		*r = unknownScalar()
	}
}

// regLE reports whether a is a refinement of b (every concrete state
// described by a is also described by b). Used for the walk's state pruning.
func regLE(a, b *RegState) bool {
	if b.Type == TypeInvalid {
		return true // an unusable register accepts anything
	}
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TypeScalar:
		return a.Tnum.In(b.Tnum) &&
			a.SMin >= b.SMin && a.SMax <= b.SMax &&
			a.UMin >= b.UMin && a.UMax <= b.UMax
	case TypeCtx:
		return true
	case TypeStack, TypeMapValue:
		if a.Off != b.Off {
			return false
		}
		if a.Type == TypeMapValue {
			return a.ValSize == b.ValSize && (!a.MaybeNull || b.MaybeNull)
		}
		return true
	case TypeHeap:
		return a.DMin >= b.DMin && a.DMax <= b.DMax &&
			(!a.MaybeNull || b.MaybeNull) && (!a.Adjusted || b.Adjusted)
	case TypeObj:
		return a.ObjKind == b.ObjKind && a.RefSite == b.RefSite && (!a.MaybeNull || b.MaybeNull)
	}
	return false
}

// regJoin computes the least upper bound of two register states, which
// widenReg widens. Incompatible pointer types degrade to TypeInvalid
// (unusable but sound: any later use is rejected or re-guarded).
func regJoin(a, b RegState) RegState {
	if a.Type == TypeInvalid || b.Type == TypeInvalid {
		return RegState{Type: TypeInvalid}
	}
	// NULL (scalar 0) joined with a maybe-null pointer keeps the pointer,
	// marked maybe-null. This is the "p = NULL; if (...) p = malloc(...)"
	// pattern. Any other scalar joined with a heap pointer degrades to an
	// unknown scalar: heap addresses are extension-visible values and a
	// later dereference re-guards them (formation, §3.2).
	if a.Type == TypeScalar && b.Type != TypeScalar {
		if a.IsNullConst() && nullable(b.Type) {
			b.MaybeNull = true
			return b
		}
		if b.Type == TypeHeap {
			return unknownScalar()
		}
		return RegState{Type: TypeInvalid}
	}
	if b.Type == TypeScalar && a.Type != TypeScalar {
		if b.IsNullConst() && nullable(a.Type) {
			a.MaybeNull = true
			return a
		}
		if a.Type == TypeHeap {
			return unknownScalar()
		}
		return RegState{Type: TypeInvalid}
	}
	if a.Type != b.Type {
		return RegState{Type: TypeInvalid}
	}
	switch a.Type {
	case TypeScalar:
		out := RegState{Type: TypeScalar, Tnum: tnum.Union(a.Tnum, b.Tnum)}
		out.SMin = min(a.SMin, b.SMin)
		out.SMax = max(a.SMax, b.SMax)
		out.UMin = min(a.UMin, b.UMin)
		out.UMax = max(a.UMax, b.UMax)
		out.deduceBounds()
		return out
	case TypeCtx:
		return a
	case TypeStack:
		if a.Off != b.Off {
			return RegState{Type: TypeInvalid}
		}
		return a
	case TypeHeap:
		a.DMin = min(a.DMin, b.DMin)
		a.DMax = max(a.DMax, b.DMax)
		a.MaybeNull = a.MaybeNull || b.MaybeNull
		a.Adjusted = a.Adjusted || b.Adjusted
		return a
	case TypeMapValue:
		if a.Off != b.Off || a.ValSize != b.ValSize {
			return RegState{Type: TypeInvalid}
		}
		a.MaybeNull = a.MaybeNull || b.MaybeNull
		return a
	case TypeObj:
		if a.ObjKind != b.ObjKind || a.RefSite != b.RefSite {
			return RegState{Type: TypeInvalid}
		}
		a.MaybeNull = a.MaybeNull || b.MaybeNull
		return a
	}
	return RegState{Type: TypeInvalid}
}

func nullable(t RegType) bool {
	return t == TypeHeap || t == TypeMapValue || t == TypeObj
}

// widenReg forces a still-changing register to its most general form so an
// unbounded loop converges (range widening, §3.2's loop analysis).
func widenReg(old, new RegState) RegState {
	j := regJoin(old, new)
	switch j.Type {
	case TypeScalar:
		if j != old {
			return unknownScalar()
		}
	case TypeHeap:
		if j != old {
			j.DMin = math.MinInt64
			j.DMax = math.MaxInt64
		}
	}
	return j
}

// --- Stack -------------------------------------------------------------------

// stackState is the abstract stack frame, kept the way the kernel's verifier
// keeps it — one structure: per aligned 8-byte slot the bytes written, and
// for a slot holding a whole spilled register, that register's value.
type stackState struct {
	// written[i] has bit b set once byte 8*i+b of the frame, counted from
	// its bottom (fp-512), has been written.
	written [StackSize / 8]uint8
	// spills holds the registers stored by aligned 8-byte writes, ascending
	// by offset; every byte of such a slot is written. Cloned states share
	// the array, so it is never updated in place: a change builds a new one.
	spills []spill
}

type spill struct {
	off int16 // from the frame top, e.g. -8
	reg RegState
}

// frameIdx maps the frame range [off, off+size), off negative, to the index
// of its first byte in the written bits.
func frameIdx(off int64, size int) (int, bool) {
	if off < -StackSize || off+int64(size) > 0 {
		return 0, false
	}
	return int(StackSize + off), true
}

// spillAt returns the register spilled at off, or nil.
func (s *stackState) spillAt(off int64) *RegState {
	for i := range s.spills {
		if int64(s.spills[i].off) == off {
			return &s.spills[i].reg
		}
	}
	return nil
}

// dropSpills forgets the spilled values drop selects; their bytes stay
// written.
func (s *stackState) dropSpills(drop func(*spill) bool) {
	n := 0
	for i := range s.spills {
		if drop(&s.spills[i]) {
			n++
		}
	}
	if n == 0 {
		return
	}
	kept := make([]spill, 0, len(s.spills)-n)
	for i := range s.spills {
		if !drop(&s.spills[i]) {
			kept = append(kept, s.spills[i])
		}
	}
	s.spills = kept
}

// write marks [off, off+size) written. If full is a valid reg state and the
// write is an aligned 8-byte spill, precision is retained.
func (s *stackState) write(off int64, size int, full *RegState) error {
	idx, ok := frameIdx(off, size)
	if !ok {
		return fmt.Errorf("invalid stack write at off %d size %d", off, size)
	}
	if full != nil && size == 8 && off%8 == 0 {
		i, replaces := slices.BinarySearchFunc(s.spills, off,
			func(sp spill, off int64) int { return cmp.Compare(int64(sp.off), off) })
		rest := s.spills[i:]
		if replaces {
			rest = rest[1:]
		}
		s.spills = slices.Concat(s.spills[:i], []spill{{int16(off), *full}}, rest)
		s.written[idx/8] = 0xff
		return nil
	}
	if full != nil && full.Type != TypeScalar && full.Type != TypeInvalid && size != 8 {
		return fmt.Errorf("partial spill of pointer at off %d", off)
	}
	s.markWritten(off, size)
	return nil
}

// markWritten marks [off, off+size) written with bytes of no known value
// (scalar stores, helper out-buffers); a spill they overlap loses its value.
func (s *stackState) markWritten(off int64, size int) {
	idx, ok := frameIdx(off, size)
	if !ok {
		return
	}
	s.dropSpills(func(sp *spill) bool {
		return int64(sp.off) < off+int64(size) && off < int64(sp.off)+8
	})
	for i := idx; i < idx+size; i++ {
		s.written[i/8] |= 1 << (i % 8)
	}
}

// unwritten returns the first of the size bytes from frame index idx that was
// never written, counted from idx, or -1 when all were.
func (s *stackState) unwritten(idx, size int) int {
	for i := 0; i < size; i++ {
		if s.written[(idx+i)/8]>>((idx+i)%8)&1 == 0 {
			return i
		}
	}
	return -1
}

// initialized reports whether [off, off+size) has been fully written.
func (s *stackState) initialized(off int64, size int) bool {
	idx, ok := frameIdx(off, size)
	return ok && s.unwritten(idx, size) < 0
}

// read returns the abstract value of a [off, off+size) stack load.
func (s *stackState) read(off int64, size int) (RegState, error) {
	idx, ok := frameIdx(off, size)
	if !ok {
		return RegState{}, fmt.Errorf("invalid stack read at off %d size %d", off, size)
	}
	if size == 8 {
		if r := s.spillAt(off); r != nil {
			return *r, nil
		}
	}
	if i := s.unwritten(idx, size); i >= 0 {
		return RegState{}, fmt.Errorf("read of uninitialized stack at off %d", off+int64(i))
	}
	return unknownScalar(), nil
}

// stackLE reports whether a refines b: a is written wherever b is, and holds
// a refining spill wherever b holds one.
func stackLE(a, b *stackState) bool {
	for i := range b.written {
		if b.written[i]&^a.written[i] != 0 {
			return false
		}
	}
	for i := range b.spills {
		as := a.spillAt(int64(b.spills[i].off))
		if as == nil || !regLE(as, &b.spills[i].reg) {
			return false
		}
	}
	return true
}

// widenStack is the stack half of state.widen: a byte is written where both
// frames wrote it, and a slot keeps a spilled value where both hold one and
// the two widen to a usable register.
func widenStack(a, b *stackState) stackState {
	var out stackState
	for i := range out.written {
		out.written[i] = a.written[i] & b.written[i]
	}
	if len(a.spills) > 0 && len(b.spills) > 0 {
		out.spills = make([]spill, 0, min(len(a.spills), len(b.spills)))
	}
	for i := range a.spills {
		as := &a.spills[i]
		bs := b.spillAt(int64(as.off))
		if bs == nil {
			continue
		}
		j := widenReg(as.reg, *bs)
		if j.Type == TypeInvalid {
			continue
		}
		out.spills = append(out.spills, spill{as.off, j})
	}
	return out
}

// --- Whole-machine state ------------------------------------------------------

// ref tracks one held kernel resource.
type ref struct {
	Site int
	Kind kernel.ObjKind
}

// state is the abstract machine state at one program point: a plain value,
// cloned by copying it. The two slices in it are shared between clones and
// rebuilt by whatever changes them, never updated in place.
type state struct {
	Regs  [insn.NumRegs]RegState
	Stack stackState
	// Refs holds acquired, unreleased kernel resources, ascending by
	// acquisition site.
	Refs []ref
	// LockDepth counts held KFlex spin locks (§3.1: eBPF allows one,
	// KFlex allows many).
	LockDepth int
}

// newEntryState is the state at instruction 0: nothing usable but the frame
// pointer and R1 — the hook context or, for a cancellation callback (§4.3),
// an unknown scalar.
func newEntryState(scalarR1 bool) *state {
	s := &state{}
	s.Regs[insn.R1] = RegState{Type: TypeCtx}
	if scalarR1 {
		s.Regs[insn.R1] = unknownScalar()
	}
	s.Regs[insn.R10] = RegState{Type: TypeStack}
	return s
}

func (s *state) clone() *state {
	c := *s
	return &c
}

// refIndex returns where the reference acquired at site sits in Refs, or
// would be inserted, and whether it is held.
func (s *state) refIndex(site int) (int, bool) {
	return slices.BinarySearchFunc(s.Refs, site, func(r ref, site int) int { return r.Site - site })
}

// acquire adds r, which is not held, to Refs.
func (s *state) acquire(r ref) {
	i, _ := s.refIndex(r.Site)
	s.Refs = slices.Concat(s.Refs[:i], []ref{r}, s.Refs[i:])
}

// release drops the reference acquired at site, if it is held.
func (s *state) release(site int) {
	if i, held := s.refIndex(site); held {
		s.Refs = slices.Concat(s.Refs[:i], s.Refs[i+1:])
	}
}

// le reports whether s refines o.
func (s *state) le(o *state) bool {
	if s.LockDepth != o.LockDepth || !slices.Equal(s.Refs, o.Refs) {
		return false
	}
	for i := range s.Regs {
		if !regLE(&s.Regs[i], &o.Regs[i]) {
			return false
		}
	}
	return stackLE(&s.Stack, &o.Stack)
}

// widen merges o, a later arrival at a loop head, into s: registers and
// spilled slots go to their most general form wherever o moved them
// (widenReg), so the loop converges, and a stack byte stays written where
// both wrote it. It returns an error when resource or lock state disagrees:
// the paper's convergence requirement (§3.1).
func (s *state) widen(o *state) (*state, error) {
	if s.LockDepth != o.LockDepth {
		return nil, fmt.Errorf("lock depth mismatch at loop head (%d vs %d)", s.LockDepth, o.LockDepth)
	}
	if !slices.Equal(s.Refs, o.Refs) {
		return nil, fmt.Errorf("loop does not converge for kernel resources: %s vs %s",
			refsString(s.Refs), refsString(o.Refs))
	}
	out := &state{Stack: widenStack(&s.Stack, &o.Stack), Refs: s.Refs, LockDepth: s.LockDepth}
	for i := range out.Regs {
		out.Regs[i] = widenReg(s.Regs[i], o.Regs[i])
	}
	return out, nil
}

func refsString(refs []ref) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, r := range refs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s@%d", r.Kind, r.Site)
	}
	sb.WriteByte('}')
	return sb.String()
}
