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
	"fmt"
	"math"
	"sort"
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
// described by a is also described by b). Used for DFS state pruning.
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

// regJoin computes the least upper bound of two register states for the
// KFlex fixpoint engine. Incompatible pointer types degrade to TypeInvalid
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

// widenReg forces a still-changing register to its most general form so the
// fixpoint terminates (range widening, §3.2's loop analysis).
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

// Slot classification per stack byte.
const (
	slotNone  = 0 // never written
	slotMisc  = 1 // scalar bytes written
	slotSpill = 2 // part of an 8-byte register spill
)

type stackState struct {
	slots  [StackSize]uint8
	spills map[int16]RegState // key: offset from frame top (e.g. -8)
}

func newStack() *stackState {
	return &stackState{spills: make(map[int16]RegState)}
}

func (s *stackState) clone() *stackState {
	c := &stackState{slots: s.slots, spills: make(map[int16]RegState, len(s.spills))}
	for k, v := range s.spills {
		c.spills[k] = v
	}
	return c
}

// stackIdx maps a frame offset (negative) to a slot array index.
func stackIdx(off int64) (int, bool) {
	if off < -StackSize || off >= 0 {
		return 0, false
	}
	return int(StackSize + off), true
}

// write marks [off, off+size) written. If full is a valid reg state and the
// write is an aligned 8-byte spill, precision is retained.
func (s *stackState) write(off int64, size int, full *RegState) error {
	idx, ok := stackIdx(off)
	if !ok || off+int64(size) > 0 {
		return fmt.Errorf("invalid stack write at off %d size %d", off, size)
	}
	// Any overlapping spill is invalidated to misc.
	s.invalidateSpills(off, size)
	if full != nil && size == 8 && off%8 == 0 {
		s.spills[int16(off)] = *full
		for i := 0; i < 8; i++ {
			s.slots[idx+i] = slotSpill
		}
		return nil
	}
	if full != nil && full.Type != TypeScalar && full.Type != TypeInvalid && size != 8 {
		return fmt.Errorf("partial spill of pointer at off %d", off)
	}
	for i := 0; i < size; i++ {
		s.slots[idx+i] = slotMisc
	}
	return nil
}

func (s *stackState) invalidateSpills(off int64, size int) {
	for spillOff := range s.spills {
		if int64(spillOff) < off+int64(size) && off < int64(spillOff)+8 {
			delete(s.spills, spillOff)
			idx, _ := stackIdx(int64(spillOff))
			for i := 0; i < 8; i++ {
				if s.slots[idx+i] == slotSpill {
					s.slots[idx+i] = slotMisc
				}
			}
		}
	}
}

// read returns the abstract value of a [off, off+size) stack load.
func (s *stackState) read(off int64, size int) (RegState, error) {
	idx, ok := stackIdx(off)
	if !ok || off+int64(size) > 0 {
		return RegState{}, fmt.Errorf("invalid stack read at off %d size %d", off, size)
	}
	if size == 8 && off%8 == 0 {
		if r, ok := s.spills[int16(off)]; ok {
			return r, nil
		}
	}
	for i := 0; i < size; i++ {
		if s.slots[idx+i] == slotNone {
			return RegState{}, fmt.Errorf("read of uninitialized stack at off %d", off+int64(i))
		}
	}
	return unknownScalar(), nil
}

// initialized reports whether [off, off+size) has been fully written.
func (s *stackState) initialized(off int64, size int) bool {
	idx, ok := stackIdx(off)
	if !ok || off+int64(size) > 0 {
		return false
	}
	for i := 0; i < size; i++ {
		if s.slots[idx+i] == slotNone {
			return false
		}
	}
	return true
}

// markWritable marks [off, off+size) as written (helper out-buffers).
func (s *stackState) markWritten(off int64, size int) {
	idx, ok := stackIdx(off)
	if !ok {
		return
	}
	s.invalidateSpills(off, size)
	for i := 0; i < size && idx+i < StackSize; i++ {
		s.slots[idx+i] = slotMisc
	}
}

func stackLE(a, b *stackState) bool {
	// a refines b if everywhere a is at least as initialized and spills
	// refine.
	for i := 0; i < StackSize; i++ {
		if b.slots[i] != slotNone && a.slots[i] == slotNone {
			return false
		}
	}
	for off, bs := range b.spills {
		as, ok := a.spills[off]
		if !ok {
			return false
		}
		if !regLE(&as, &bs) {
			return false
		}
	}
	return true
}

func stackJoin(a, b *stackState) *stackState {
	out := newStack()
	for i := 0; i < StackSize; i++ {
		if a.slots[i] == slotNone || b.slots[i] == slotNone {
			out.slots[i] = slotNone
		} else {
			out.slots[i] = slotMisc
		}
	}
	for off, as := range a.spills {
		if bs, ok := b.spills[off]; ok {
			j := regJoin(as, bs)
			if j.Type != TypeInvalid {
				out.spills[off] = j
				idx, _ := stackIdx(int64(off))
				for i := 0; i < 8; i++ {
					out.slots[idx+i] = slotSpill
				}
			}
		}
	}
	return out
}

// --- Whole-machine state ------------------------------------------------------

// ref tracks one held kernel resource.
type ref struct {
	Site int
	Kind kernel.ObjKind
}

// state is the abstract machine state at one program point.
type state struct {
	Regs  [insn.NumRegs]RegState
	Stack *stackState
	// Refs holds acquired, unreleased kernel resources keyed by
	// acquisition site.
	Refs map[int]ref
	// LockDepth counts held KFlex spin locks (§3.1: eBPF allows one,
	// KFlex allows many).
	LockDepth int
}

func newEntryState(hasCtx bool) *state {
	s := &state{Stack: newStack(), Refs: make(map[int]ref)}
	for i := range s.Regs {
		s.Regs[i] = RegState{Type: TypeInvalid}
	}
	if hasCtx {
		s.Regs[insn.R1] = RegState{Type: TypeCtx}
	}
	s.Regs[insn.R10] = RegState{Type: TypeStack, Off: 0}
	return s
}

func (s *state) clone() *state {
	c := &state{
		Regs:      s.Regs,
		Stack:     s.Stack.clone(),
		Refs:      make(map[int]ref, len(s.Refs)),
		LockDepth: s.LockDepth,
	}
	for k, v := range s.Refs {
		c.Refs[k] = v
	}
	return c
}

// refsEqual reports whether two states hold exactly the same resources.
func refsEqual(a, b map[int]ref) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// le reports whether s refines o.
func (s *state) le(o *state) bool {
	if s.LockDepth != o.LockDepth || !refsEqual(s.Refs, o.Refs) {
		return false
	}
	for i := range s.Regs {
		if !regLE(&s.Regs[i], &o.Regs[i]) {
			return false
		}
	}
	return stackLE(s.Stack, o.Stack)
}

// join merges s with o. It returns an error when resource or lock state
// disagrees — the paper's convergence requirement (§3.1).
func (s *state) join(o *state) (*state, error) {
	if s.LockDepth != o.LockDepth {
		return nil, fmt.Errorf("lock depth mismatch at merge point (%d vs %d)", s.LockDepth, o.LockDepth)
	}
	if !refsEqual(s.Refs, o.Refs) {
		return nil, fmt.Errorf("kernel resources do not converge at merge point: %s vs %s",
			refsString(s.Refs), refsString(o.Refs))
	}
	out := s.clone()
	for i := range out.Regs {
		out.Regs[i] = regJoin(s.Regs[i], o.Regs[i])
	}
	out.Stack = stackJoin(s.Stack, o.Stack)
	return out, nil
}

// widen joins with widening for loop heads.
func (s *state) widen(o *state) (*state, error) {
	if s.LockDepth != o.LockDepth {
		return nil, fmt.Errorf("lock depth mismatch at loop head (%d vs %d)", s.LockDepth, o.LockDepth)
	}
	if !refsEqual(s.Refs, o.Refs) {
		return nil, fmt.Errorf("loop does not converge for kernel resources: %s vs %s",
			refsString(s.Refs), refsString(o.Refs))
	}
	out := s.clone()
	for i := range out.Regs {
		out.Regs[i] = widenReg(s.Regs[i], o.Regs[i])
	}
	out.Stack = stackJoin(s.Stack, o.Stack)
	// Widen any still-changing spill slots.
	for off, sv := range out.Stack.spills {
		if ov, ok := s.Stack.spills[off]; ok && sv != ov {
			out.Stack.spills[off] = widenReg(ov, sv)
		}
	}
	return out, nil
}

func refsString(refs map[int]ref) string {
	if len(refs) == 0 {
		return "{}"
	}
	sites := make([]int, 0, len(refs))
	for s := range refs {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, site := range sites {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s@%d", refs[site].Kind, site)
	}
	sb.WriteByte('}')
	return sb.String()
}
