package verifier

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"kflex/insn"
	"kflex/internal/cfg"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/tnum"
)

// Mode selects the verification ruleset.
type Mode int

const (
	// ModeEBPF is vanilla eBPF: no extension heap, loops must provably
	// terminate, at most one lock, KFlex helpers unavailable (§2.2).
	ModeEBPF Mode = iota
	// ModeKFlex splits safety: kernel-interface compliance is still
	// verified statically, while extension-heap accesses and unbounded
	// loops are admitted and flagged for runtime instrumentation (§3).
	ModeKFlex
)

// Config parameterizes verification.
type Config struct {
	Mode   Mode
	Hook   *kernel.Hook
	Kernel *kernel.Kernel
	// HeapSize is the declared extension heap size (0 = none).
	HeapSize uint64
	// ShareHeap requests translate-on-store facts for user-space sharing
	// (§3.4).
	ShareHeap bool
	// InsnBudget caps symbolic execution work (the kernel's 1M insn
	// analogue). Zero selects the default.
	InsnBudget int
	// ScalarR1 makes R1 an unknown scalar instead of the hook context
	// (used for cancellation callbacks, §4.3).
	ScalarR1 bool
	// PerfMode analyzes for a program whose read guards Kie will not emit
	// (§3.2): read sanitization then cannot be relied upon, so a read guard
	// does not mark the base register sanitized. This keeps write elision
	// sound (writes are always sanitized).
	PerfMode bool
	// DisableElision is the §5.4 ablation baseline: Kie guards every heap
	// access whatever the range analysis proved. The verifier itself ignores
	// it — Facts stay its true verdicts — and carries it to Kie in Config
	// beside PerfMode and ShareHeap, the other two knobs Kie reads.
	DisableElision bool
}

// DefaultInsnBudget caps states processed during symbolic execution.
const DefaultInsnBudget = 400_000

// widenThreshold is how many arrivals a loop head sees, over the whole walk,
// before an unbounded walk widens there.
const widenThreshold = 3

// Error is a verification failure annotated with the offending instruction.
type Error struct {
	Insn int
	Msg  string
	// Err optionally carries a sentinel (ErrUnboundedLoop, ErrTooComplex)
	// for errors.Is classification.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("verifier: insn %d: %s", e.Insn, e.Msg)
}

// Unwrap exposes the sentinel classification.
func (e *Error) Unwrap() error { return e.Err }

// Sentinel classification errors (wrapped inside *Error messages where the
// engine needs to distinguish them).
var (
	// ErrUnboundedLoop marks the walk detecting a loop whose termination it
	// cannot prove — fatal in eBPF mode, instrumentation trigger in
	// KFlex mode.
	ErrUnboundedLoop = errors.New("unbounded loop")
	// ErrTooComplex marks exhaustion of the instruction budget.
	ErrTooComplex = errors.New("program too complex")
)

// AccessFact summarizes what the verifier learned about one instruction,
// for consumption by the Kie instrumentation engine.
type AccessFact struct {
	// HeapAccess marks loads/stores/atomics that touch the extension
	// heap (class-2 cancellation points, §3.3).
	HeapAccess bool
	// Read distinguishes loads from stores/atomics.
	Read bool
	// Guard is set when SFI sanitization is required; unset on heap
	// accesses proven in-bounds by range analysis (elision, §3.2).
	Guard bool
	// Formation is set when the guard materializes a heap pointer from a
	// raw scalar; such guards are mandatory and excluded from elision
	// statistics (Table 3).
	Formation bool
	// StoresHeapPtr marks stores whose value operand is a heap pointer
	// (translate-on-store sites, §3.4).
	StoresHeapPtr bool
	// Manip marks accesses through a manipulated heap pointer: the
	// population whose guards range analysis tries to elide (Table 3).
	Manip bool
}

// ObjLocation describes where a held kernel object's pointer lives at a
// cancellation point.
type ObjLocation struct {
	InReg    bool
	Reg      insn.Reg
	StackOff int16
}

// compare orders locations the way an object table lists them: registers by
// number, then stack slots by offset.
func (l ObjLocation) compare(m ObjLocation) int {
	if l.InReg != m.InReg {
		if l.InReg {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(l.Reg, m.Reg), cmp.Compare(l.StackOff, m.StackOff))
}

func (l ObjLocation) String() string {
	if l.InReg {
		return l.Reg.String()
	}
	return fmt.Sprintf("fp%+d", l.StackOff)
}

// ObjTableEntry is one row of a cancellation point's object table (§3.3):
// a kernel resource the runtime must release if the extension is terminated
// at that point, with its destructor.
type ObjTableEntry struct {
	Site       int
	Kind       kernel.ObjKind
	Destructor string
	// Locs lists every place the pointer may live, in ObjLocation.compare
	// order.
	Locs []ObjLocation
	// Conflict reports the §4.3 corner case: different paths reach the
	// point with the resource in different locations, and Locs is their
	// union. Nothing acts on it — the runtime unwinds from its own list of
	// held objects, not from a location.
	Conflict bool
}

// Analysis is the verifier's output.
type Analysis struct {
	Prog  []insn.Instruction
	Graph *cfg.Graph
	Facts []AccessFact
	// UnboundedEdges are retreating CFG edges whose loops could not be
	// proven terminating: Kie plants a *terminate probe (C1) before each
	// tail (§3.3).
	UnboundedEdges []cfg.BackEdge
	// ObjTables maps a cancellation-point instruction index (heap access
	// or unbounded back-edge tail) to the resources held there, ascending
	// by Site. The same program and Config give the same tables, rows and
	// locations every time.
	ObjTables map[int][]ObjTableEntry
	// LoopsBounded reports whether every loop was proven terminating (the
	// walk unrolled each to its end).
	LoopsBounded bool
	// StatesExplored counts symbolic execution work.
	StatesExplored int
	// Config echoes the verification parameters.
	Config Config
}

// verifier carries the mutable analysis context.
type verifier struct {
	cfg   Config
	prog  []insn.Instruction
	g     *cfg.Graph
	facts []AccessFact
	// tables holds the object table of every cancellation point the walk
	// reached: heap accesses (C2) in tables, retreating-edge tails (C1) in
	// loopTables, which join them only if a loop proves unbounded.
	tables, loopTables []cpTable
	// loop marks the heads and tails of retreating edges.
	loop   []uint8
	budget int
	steps  int
	// unbounded is set once the walk has evidence of a loop it cannot
	// bound; from then on it widens at loop heads.
	unbounded bool
	// succ is where step leaves its successors, copied out by the walk
	// before the next step, so that no step allocates for them.
	succ [2]succState
}

// cpTable is one instruction's object table as the walk builds it.
type cpTable struct {
	reached bool
	rows    []ObjTableEntry // ascending by Site
}

const (
	loopHead uint8 = 1 << iota
	loopTail
)

// Verify analyzes prog under cfg and returns the instrumentation facts.
func Verify(prog []insn.Instruction, vc Config) (*Analysis, error) {
	if vc.Kernel == nil {
		return nil, fmt.Errorf("verifier: Config.Kernel is required")
	}
	if vc.Hook == nil && !vc.ScalarR1 {
		return nil, fmt.Errorf("verifier: Config.Hook is required")
	}
	if vc.Mode == ModeEBPF && vc.HeapSize != 0 {
		return nil, fmt.Errorf("verifier: extension heaps require KFlex mode")
	}
	if vc.HeapSize != 0 && (vc.HeapSize&(vc.HeapSize-1)) != 0 {
		return nil, fmt.Errorf("verifier: heap size %#x not a power of two", vc.HeapSize)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		return nil, err
	}
	if idx, dead := g.HasUnreachable(); dead {
		return nil, &Error{Insn: idx, Msg: "unreachable instruction"}
	}
	// Structural checks over the whole program, before the walk: the walk is
	// path-sensitive and never steps an instruction behind a branch it
	// folded, but Kie, the lowering and the loader see every instruction.
	for i, ins := range prog {
		if msg := malformed(ins, vc.Kernel); msg != "" {
			return nil, &Error{Insn: i, Msg: msg}
		}
	}
	budget := vc.InsnBudget
	if budget <= 0 {
		budget = DefaultInsnBudget
	}
	v := &verifier{
		cfg: vc, prog: prog, g: g, budget: budget,
		facts:      make([]AccessFact, len(prog)),
		tables:     make([]cpTable, len(prog)),
		loopTables: make([]cpTable, len(prog)),
		loop:       make([]uint8, len(prog)),
	}
	edges := g.RetreatingEdges()
	for _, e := range edges {
		v.loop[e.Head] |= loopHead
		v.loop[e.Tail] |= loopTail
	}
	if err := v.walk(); err != nil {
		return nil, err
	}
	an := &Analysis{
		Prog:           prog,
		Graph:          g,
		Facts:          v.facts,
		LoopsBounded:   !v.unbounded,
		StatesExplored: v.steps,
		ObjTables:      make(map[int][]ObjTableEntry),
		Config:         vc,
	}
	if v.unbounded {
		// Every retreating edge becomes a C1 cancellation point (§3.3).
		an.UnboundedEdges = edges
	}
	for i := range v.tables {
		t, lt := &v.tables[i], &v.loopTables[i]
		if v.unbounded && lt.reached {
			t.reached = true
			for _, row := range lt.rows {
				t.rows = v.addRow(t.rows, row)
			}
		}
		if t.reached {
			an.ObjTables[i] = t.rows
		}
	}
	return an, nil
}

// --- The walk (eBPF-style path exploration, widening where it must) ----------

// walkFrame is one instruction on the current path: its state until it is
// stepped, then the successors still to explore.
type walkFrame struct {
	idx         int
	st          *state
	succs       [2]succState
	nsucc, next int
	// visit is this frame's entry in the visited list (merge points
	// only); it is marked complete when the frame pops.
	visit *visitedState
}

// visitedState is a state recorded at a merge point. While its frame is
// still on the walk's stack (inProgress), a refining revisit means the loop
// makes no provable progress; once exploration from it has completed
// without error, refining states can be pruned safely (the kernel's
// states_equal pruning with in-flight branch accounting).
type visitedState struct {
	st         *state
	inProgress bool
	// unroll counts the earlier visits of this point on the same path.
	unroll int
}

// maxVisited caps the states kept per merge point, in-progress ones
// included — the kernel keeps its per-instruction lists short for the same
// reason: every arrival is compared against the whole list.
const maxVisited = 24

// maxUnroll is how many times one path may pass a merge point before KFlex
// mode stops trying to bound the loop that brings it back.
const maxUnroll = 256

// remember appends vs to a merge point's list, evicting one entry once the
// list is full: the oldest completed state if there is one, else the
// oldest ancestor. Losing a completed state only costs a missed prune;
// losing an ancestor means a loop that returns to it is no longer caught
// there, and a loop never caught runs into maxUnroll in KFlex mode or the
// instruction budget in eBPF mode. The evicted state is dropped at once (its
// frame still points at the entry).
func remember(list []*visitedState, vs *visitedState) []*visitedState {
	if len(list) >= maxVisited {
		evict := 0
		for i, old := range list {
			if !old.inProgress {
				evict = i
				break
			}
		}
		list[evict].st = nil
		list = append(list[:evict], list[evict+1:]...)
	}
	return append(list, vs)
}

type succState struct {
	idx int
	st  *state
}

// walk explores every path from the entry depth first, pruning a state that
// refines one already explored from the same point. A revisit refining a
// state still being explored — a loop that makes no provable progress — is
// an error in eBPF mode. In KFlex mode it, or one path passing a point
// maxUnroll times, marks the walk unbounded: the revisit is pruned (the
// state it refines is still being explored), and from then on a loop head
// that has seen widenThreshold arrivals merges each new one, widened, into
// its latest state, so that every loop converges. The walk never restarts.
func (v *verifier) walk() error {
	visited := make([][]*visitedState, len(v.prog))
	arrivals := make([]int, len(v.prog))
	stack := []walkFrame{{idx: 0, st: newEntryState(v.cfg.ScalarR1)}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if st := f.st; st != nil {
			idx := f.idx
			f.st = nil
			if v.loop[idx]&loopHead != 0 {
				arrivals[idx]++
				if v.unbounded && arrivals[idx] > widenThreshold {
					latest := visited[idx][len(visited[idx])-1]
					w, err := latest.st.widen(st)
					if err != nil {
						return &Error{Insn: idx, Msg: err.Error()}
					}
					st = w
				}
			}
			if old := covering(visited[idx], st); old != nil {
				if old.inProgress {
					if v.cfg.Mode == ModeEBPF {
						return &Error{Insn: idx, Err: ErrUnboundedLoop, Msg: fmt.Sprintf(
							"back edge revisits a covering state; cannot prove termination: %v", ErrUnboundedLoop)}
					}
					v.unbounded = true
				}
				stack = stack[:len(stack)-1]
				continue
			}
			if v.isMergePoint(idx) {
				f.visit = &visitedState{st: st.clone(), inProgress: true}
				for _, old := range slices.Backward(visited[idx]) {
					if old.inProgress {
						f.visit.unroll = old.unroll + 1
						break
					}
				}
				if f.visit.unroll > maxUnroll && v.cfg.Mode == ModeKFlex {
					v.unbounded = true
				}
				visited[idx] = remember(visited[idx], f.visit)
			}
			v.steps++
			if v.steps > v.budget {
				return &Error{Insn: idx, Err: ErrTooComplex, Msg: fmt.Sprintf(
					"instruction budget exceeded (%d): %v", v.budget, ErrTooComplex)}
			}
			// The checks above were the last readers of this state (later
			// arrivals compare against the visit's clone), so step may
			// consume it: a frame deep in an unrolled loop must not keep a
			// state alive.
			succs, err := v.step(idx, st)
			if err != nil {
				return err
			}
			f.nsucc = copy(f.succs[:], succs)
		}
		if f.next < f.nsucc {
			s := f.succs[f.next]
			f.succs[f.next].st = nil // the child frame owns it now
			f.next++
			stack = append(stack, walkFrame{idx: s.idx, st: s.st})
			continue
		}
		if f.visit != nil {
			f.visit.inProgress = false
		}
		stack = stack[:len(stack)-1]
	}
	return nil
}

// covering returns the first state in list that st refines, or nil.
func covering(list []*visitedState, st *state) *visitedState {
	for _, old := range list {
		if st.le(old.st) {
			return old
		}
	}
	return nil
}

// isMergePoint limits prune-state retention to instructions with multiple
// predecessors and to loop heads, bounding memory; every cycle passes
// through a loop head, and only the entry can be one with one predecessor.
func (v *verifier) isMergePoint(idx int) bool {
	return len(v.g.Pred[idx]) > 1 || v.loop[idx]&loopHead != 0
}

// --- Fact and object-table recording ------------------------------------------

func (v *verifier) recordHeapAccess(idx int, read, guard, formation, manip bool) {
	f := &v.facts[idx]
	f.HeapAccess = true
	f.Read = f.Read || read
	f.Guard = f.Guard || guard
	f.Formation = f.Formation || formation
	f.Manip = f.Manip || manip
}

// recordCP snapshots the object table for a cancellation point at idx
// into t.
func (v *verifier) recordCP(t *cpTable, idx int, st *state) error {
	t.reached = true
	for _, r := range st.Refs {
		locs := findRefLocations(st, r.Site)
		if len(locs) == 0 {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"reference to %s acquired at insn %d has no live location", r.Kind, r.Site)}
		}
		t.rows = v.addRow(t.rows, ObjTableEntry{Site: r.Site, Kind: r.Kind, Locs: locs})
	}
	return nil
}

// addRow folds row into rows, which ascend by Site. Locations of one site
// are unioned; differing location sets across paths are the §4.3 conflict.
func (v *verifier) addRow(rows []ObjTableEntry, row ObjTableEntry) []ObjTableEntry {
	i, found := slices.BinarySearchFunc(rows, row.Site,
		func(r ObjTableEntry, site int) int { return r.Site - site })
	if !found {
		row.Destructor = v.destructorFor(row.Kind)
		return slices.Insert(rows, i, row)
	}
	if row.Conflict || !slices.Equal(rows[i].Locs, row.Locs) {
		rows[i].Conflict = true
		rows[i].Locs = unionLocs(rows[i].Locs, row.Locs)
	}
	return rows
}

func (v *verifier) destructorFor(kind kernel.ObjKind) string {
	for _, id := range v.cfg.Kernel.Helpers.IDs() {
		spec, _ := v.cfg.Kernel.Helpers.Lookup(id)
		if spec.Releases > 0 && len(spec.Args) >= spec.Releases &&
			spec.Args[spec.Releases-1].ObjKind == kind {
			return spec.Name
		}
	}
	return fmt.Sprintf("put_%s", kind)
}

// findRefLocations lists where the pointer acquired at site lives in st, in
// ObjLocation.compare order.
func findRefLocations(st *state, site int) []ObjLocation {
	var locs []ObjLocation
	for i := range st.Regs {
		r := &st.Regs[i]
		if r.Type == TypeObj && r.RefSite == site {
			locs = append(locs, ObjLocation{InReg: true, Reg: insn.Reg(i)})
		}
	}
	for i := range st.Stack.spills {
		sp := &st.Stack.spills[i]
		if sp.reg.Type == TypeObj && sp.reg.RefSite == site {
			locs = append(locs, ObjLocation{StackOff: sp.off})
		}
	}
	return locs
}

// unionLocs merges two location lists, keeping ObjLocation.compare order.
func unionLocs(a, b []ObjLocation) []ObjLocation {
	out := slices.Concat(a, b)
	slices.SortFunc(out, ObjLocation.compare)
	return slices.Compact(out)
}

// checkRefsAlive verifies every held reference still has a live location
// (clobbering the last copy of an acquired pointer makes release impossible).
func checkRefsAlive(idx int, st *state) error {
	for _, r := range st.Refs {
		if len(findRefLocations(st, r.Site)) == 0 {
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"last copy of %s reference (acquired at insn %d) was lost", r.Kind, r.Site)}
		}
	}
	return nil
}

// --- Transfer function ---------------------------------------------------------

// step symbolically executes prog[idx] on st, returning successor states.
// st may be mutated.
func (v *verifier) step(idx int, st *state) ([]succState, error) {
	ins := v.prog[idx]
	cls := ins.Op.Class()

	// C1 cancellation points: every retreating-edge tail gets an object
	// table, kept aside until the walk knows whether a loop is unbounded.
	if v.loop[idx]&loopTail != 0 {
		if err := v.recordCP(&v.loopTables[idx], idx, st); err != nil {
			return nil, err
		}
	}

	switch {
	case ins.IsLoadImm64():
		if err := v.checkWritable(idx, ins.Dst); err != nil {
			return nil, err
		}
		st.Regs[ins.Dst] = constScalar(ins.Imm64)
		return v.fallthroughSucc(idx, st)

	case cls == insn.ClassALU || cls == insn.ClassALU64:
		if err := v.stepALU(idx, ins, st); err != nil {
			return nil, err
		}
		if err := checkRefsAlive(idx, st); err != nil {
			return nil, err
		}
		return v.fallthroughSucc(idx, st)

	case cls == insn.ClassLDX:
		if err := v.stepLoad(idx, ins, st); err != nil {
			return nil, err
		}
		if err := checkRefsAlive(idx, st); err != nil {
			return nil, err
		}
		return v.fallthroughSucc(idx, st)

	case cls == insn.ClassST || cls == insn.ClassSTX:
		if err := v.stepStore(idx, ins, st); err != nil {
			return nil, err
		}
		return v.fallthroughSucc(idx, st)

	case cls == insn.ClassJMP || cls == insn.ClassJMP32:
		op := ins.Op.JmpOp()
		switch op {
		case insn.JmpCall:
			if err := v.stepCall(idx, ins, st); err != nil {
				return nil, err
			}
			if err := checkRefsAlive(idx, st); err != nil {
				return nil, err
			}
			return v.fallthroughSucc(idx, st)
		case insn.JmpExit:
			return nil, v.checkExit(idx, st)
		case insn.JmpA:
			return v.one(idx+1+int(ins.Off), st), nil
		default:
			return v.stepBranch(idx, ins, st)
		}
	}
	return nil, &Error{Insn: idx, Msg: fmt.Sprintf("unknown opcode %#02x", uint8(ins.Op))}
}

// malformed names what makes ins no instruction of the input ISA — an opcode
// the eBPF encoding leaves unassigned or Kie reserves, a memory mode or jump
// form nothing executes as the walk models it, a call no helper answers — or
// returns "" for a well-formed one.
func malformed(ins insn.Instruction, k *kernel.Kernel) string {
	op := ins.Op
	ok := true
	switch op.Class() {
	case insn.ClassLD:
		ok = ins.IsLoadImm64()
	case insn.ClassLDX, insn.ClassST:
		ok = op.Mode() == insn.ModeMEM
	case insn.ClassSTX:
		ok = op.Mode() == insn.ModeMEM || op.Mode() == insn.ModeATOMIC
	case insn.ClassALU, insn.ClassALU64:
		if op.IsInternal() {
			return "internal opcode in input program"
		}
		ok = op.AluOp() <= insn.AluEnd
	case insn.ClassJMP:
		if ins.IsCall() {
			if _, known := k.Helpers.Lookup(ins.Imm); !known {
				return fmt.Sprintf("unknown helper %d", ins.Imm)
			}
		}
		ok = op.JmpOp() <= insn.JmpSle
	case insn.ClassJMP32: // conditional compares only
		ok = ins.IsCond() && op.JmpOp() <= insn.JmpSle
	}
	if !ok {
		return fmt.Sprintf("unknown opcode %#02x", uint8(op))
	}
	return ""
}

func (v *verifier) fallthroughSucc(idx int, st *state) ([]succState, error) {
	return v.one(idx+1, st), nil
}

// one and two return a step's successors in v.succ.
func (v *verifier) one(idx int, st *state) []succState {
	v.succ[0] = succState{idx, st}
	return v.succ[:1]
}

func (v *verifier) two(target int, taken *state, idx int, fall *state) []succState {
	v.succ = [2]succState{{target, taken}, {idx + 1, fall}}
	return v.succ[:]
}

func (v *verifier) checkWritable(idx int, r insn.Reg) error {
	if r == insn.R10 {
		return &Error{Insn: idx, Msg: "frame pointer r10 is read-only"}
	}
	return nil
}

func (v *verifier) checkReadable(idx int, st *state, r insn.Reg) error {
	if st.Regs[r].Type == TypeInvalid {
		return &Error{Insn: idx, Msg: fmt.Sprintf("read of uninitialized register %v", r)}
	}
	return nil
}

// operand returns the abstract second operand of an ALU/JMP instruction.
func (v *verifier) operand(idx int, ins insn.Instruction, st *state) (RegState, error) {
	if ins.Op.UsesImm() {
		return constScalar(uint64(int64(ins.Imm))), nil
	}
	if err := v.checkReadable(idx, st, ins.Src); err != nil {
		return RegState{}, err
	}
	return st.Regs[ins.Src], nil
}

func (v *verifier) stepALU(idx int, ins insn.Instruction, st *state) error {
	if err := v.checkWritable(idx, ins.Dst); err != nil {
		return err
	}
	op := ins.Op.AluOp()
	is64 := ins.Op.Class() == insn.ClassALU64
	src, err := v.operand(idx, ins, st)
	if err != nil {
		return err
	}
	dst := st.Regs[ins.Dst]
	if op != insn.AluMov {
		if err := v.checkReadable(idx, st, ins.Dst); err != nil {
			return err
		}
	}

	// MOV copies the full abstract value (64-bit) or truncates (32-bit).
	if op == insn.AluMov {
		if is64 {
			st.Regs[ins.Dst] = src
		} else {
			out := unknownScalar()
			if src.Type == TypeScalar {
				out.Tnum = src.Tnum.Subreg()
			} else {
				// Truncating a pointer leaks its bits into a
				// scalar; allowed only for heap pointers.
				if t, err := v.scalarizePointer(idx, src); err != nil {
					return err
				} else {
					out.Tnum = t
				}
			}
			out.SMin, out.SMax = 0, math.MaxUint32
			out.UMin, out.UMax = 0, math.MaxUint32
			out.deduceBounds()
			st.Regs[ins.Dst] = out
		}
		return nil
	}

	dstIsPtr := dst.Type != TypeScalar && dst.Type != TypeInvalid
	srcIsPtr := src.Type != TypeScalar && src.Type != TypeInvalid

	// Pointer arithmetic.
	if dstIsPtr || srcIsPtr {
		if !is64 {
			return &Error{Insn: idx, Msg: "32-bit arithmetic on pointer"}
		}
		switch {
		case dstIsPtr && !srcIsPtr && (op == insn.AluAdd || op == insn.AluSub):
			out, err := v.pointerAdd(idx, dst, src, op == insn.AluSub)
			if err != nil {
				return err
			}
			st.Regs[ins.Dst] = out
			return nil
		case !dstIsPtr && srcIsPtr && op == insn.AluAdd:
			out, err := v.pointerAdd(idx, src, dst, false)
			if err != nil {
				return err
			}
			st.Regs[ins.Dst] = out
			return nil
		case dstIsPtr && srcIsPtr && op == insn.AluSub && dst.Type == src.Type:
			// Pointer difference yields a scalar; allowed for heap
			// pointers only (extension-owned addresses).
			if dst.Type != TypeHeap {
				return &Error{Insn: idx, Msg: "subtraction of kernel pointers"}
			}
			st.Regs[ins.Dst] = unknownScalar()
			return nil
		default:
			// Other ops degrade heap pointers to scalars (their
			// bits are extension-visible anyway); kernel pointers
			// must not leak.
			if dst.Type == TypeHeap || (!dstIsPtr && src.Type == TypeHeap) {
				if v.cfg.Mode == ModeKFlex {
					a, b := dst, src
					if a.Type != TypeScalar {
						a = unknownScalar()
					}
					if b.Type != TypeScalar {
						b = unknownScalar()
					}
					st.Regs[ins.Dst] = aluScalar(op, is64, a, b)
					return nil
				}
			}
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"arithmetic op %#x on %s pointer prohibited", op, dst.Type)}
		}
	}

	st.Regs[ins.Dst] = aluScalar(op, is64, dst, src)
	return nil
}

// scalarizePointer converts a pointer's bits to a scalar tnum where
// permitted (heap pointers only; kernel pointers would leak addresses).
func (v *verifier) scalarizePointer(idx int, r RegState) (tnum.T, error) {
	if r.Type == TypeHeap && v.cfg.Mode == ModeKFlex {
		return tnum.Unknown, nil
	}
	return tnum.T{}, &Error{Insn: idx, Msg: fmt.Sprintf("%s pointer leaked to scalar", r.Type)}
}

// pointerAdd computes ptr ± scalar.
func (v *verifier) pointerAdd(idx int, ptr, scalar RegState, sub bool) (RegState, error) {
	lo, hi := scalar.SMin, scalar.SMax
	if sub {
		lo, hi = -hi, -lo
		if scalar.SMax == math.MinInt64 || scalar.SMin == math.MinInt64 {
			lo, hi = math.MinInt64, math.MaxInt64
		}
	}
	switch ptr.Type {
	case TypeStack, TypeMapValue:
		c, ok := scalar.IsConst()
		if !ok {
			return RegState{}, &Error{Insn: idx, Msg: fmt.Sprintf(
				"variable offset into %s", ptr.Type)}
		}
		d := int64(c)
		if sub {
			d = -d
		}
		ptr.Off += d
		return ptr, nil
	case TypeHeap:
		ptr.DMin = satAdd64(ptr.DMin, lo)
		ptr.DMax = satAdd64(ptr.DMax, hi)
		ptr.Adjusted = true
		return ptr, nil
	case TypeCtx, TypeObj:
		return RegState{}, &Error{Insn: idx, Msg: fmt.Sprintf(
			"arithmetic on %s pointer prohibited", ptr.Type)}
	}
	return RegState{}, &Error{Insn: idx, Msg: "pointer arithmetic on invalid register"}
}

// heapWindowSafe reports whether an access through a sanitized heap pointer
// with delta bounds [dmin,dmax], instruction offset off and access size is
// covered by the guard zones, allowing guard elision (§3.2).
func heapWindowSafe(dmin, dmax int64, off int16, size int) bool {
	lo := satAdd64(dmin, int64(off))
	hi := satAdd64(satAdd64(dmax, int64(off)), int64(size))
	return lo >= -heap.GuardZone && hi <= heap.GuardZone
}

// stepLoad handles LDX.
func (v *verifier) stepLoad(idx int, ins insn.Instruction, st *state) error {
	if err := v.checkWritable(idx, ins.Dst); err != nil {
		return err
	}
	if err := v.checkReadable(idx, st, ins.Src); err != nil {
		return err
	}
	size := ins.Op.SizeBytes()
	base := st.Regs[ins.Src]
	switch base.Type {
	case TypeCtx:
		if err := v.ctxAccess(idx, ins, size); err != nil {
			return err
		}
		st.Regs[ins.Dst] = boundedScalar(size)
	case TypeStack:
		r, err := st.Stack.read(base.Off+int64(ins.Off), size)
		if err != nil {
			return &Error{Insn: idx, Msg: err.Error()}
		}
		st.Regs[ins.Dst] = r
	case TypeMapValue:
		if err := mapValueAccess(idx, ins, base, size); err != nil {
			return err
		}
		st.Regs[ins.Dst] = boundedScalar(size)
	case TypeObj:
		if base.MaybeNull {
			return &Error{Insn: idx, Msg: "possible NULL kernel-object dereference"}
		}
		if ins.Off < 0 || int(ins.Off)+size > 64 {
			return &Error{Insn: idx, Msg: "kernel object read outside permitted window"}
		}
		st.Regs[ins.Dst] = boundedScalar(size)
	case TypeHeap, TypeScalar:
		if err := v.heapAccess(idx, ins, st, ins.Src, true, size); err != nil {
			return err
		}
		st.Regs[ins.Dst] = boundedScalar(size)
	default:
		return &Error{Insn: idx, Msg: "load through invalid register"}
	}
	return nil
}

// ctxAccess is the rule for touching the hook context: the access is one
// declared field, whole, and a store needs a writable one.
func (v *verifier) ctxAccess(idx int, ins insn.Instruction, size int) error {
	f, ok := v.cfg.Hook.Field(int(ins.Off), size)
	verb := "read"
	if ins.Op.Class() != insn.ClassLDX {
		verb, ok = "write", ok && f.Writable
	}
	if !ok {
		return &Error{Insn: idx, Msg: fmt.Sprintf(
			"invalid ctx %s at off %d size %d for hook %s", verb, ins.Off, size, v.cfg.Hook.Name)}
	}
	return nil
}

// mapValueAccess is the rule for touching a map value through base: the
// pointer has been NULL-checked and the bytes lie inside the value.
func mapValueAccess(idx int, ins insn.Instruction, base RegState, size int) error {
	if base.MaybeNull {
		return &Error{Insn: idx, Msg: "possible NULL map-value dereference"}
	}
	off := base.Off + int64(ins.Off)
	if off >= 0 && off+int64(size) <= base.ValSize {
		return nil
	}
	if ins.Op.Mode() == insn.ModeATOMIC {
		return &Error{Insn: idx, Msg: "atomic access out of map value bounds"}
	}
	return &Error{Insn: idx, Msg: fmt.Sprintf(
		"map value access out of bounds: off %d size %d val %d", off, size, base.ValSize)}
}

// boundedScalar is an unknown scalar limited to size bytes.
func boundedScalar(size int) RegState {
	r := unknownScalar()
	r.Tnum = tnum.Unknown.Cast(size)
	r.deduceBounds()
	return r
}

// heapAccess validates and records an extension-heap access through reg.
// In eBPF mode heap access is impossible (no heap exists), so raw-pointer
// dereferences are compliance errors.
func (v *verifier) heapAccess(idx int, ins insn.Instruction, st *state, reg insn.Reg, read bool, size int) error {
	base := st.Regs[reg]
	if v.cfg.Mode != ModeKFlex || v.cfg.HeapSize == 0 {
		return &Error{Insn: idx, Msg: fmt.Sprintf(
			"memory access through %s register (no extension heap declared)", base.Type)}
	}
	formation := base.Type == TypeScalar
	guard := formation || !heapWindowSafe(base.DMin, base.DMax, ins.Off, size)
	manip := base.Type == TypeHeap && base.Adjusted
	v.recordHeapAccess(idx, read, guard, formation, manip)
	if err := v.recordCP(&v.tables[idx], idx, st); err != nil { // every heap access is a C2 CP
		return err
	}
	if guard {
		// The guard re-sanitizes the register in place — except that in
		// performance mode Kie does not emit read guards, so their
		// sanitization cannot be relied upon by later accesses.
		if !(read && v.cfg.PerfMode) {
			st.Regs[reg] = RegState{Type: TypeHeap}
		}
	}
	return nil
}

// stepStore handles ST and STX (including atomics).
func (v *verifier) stepStore(idx int, ins insn.Instruction, st *state) error {
	size := ins.Op.SizeBytes()
	if err := v.checkReadable(idx, st, ins.Dst); err != nil {
		return err
	}
	isAtomic := ins.Op.Mode() == insn.ModeATOMIC
	var val RegState
	if ins.Op.Class() == insn.ClassSTX {
		if err := v.checkReadable(idx, st, ins.Src); err != nil {
			return err
		}
		val = st.Regs[ins.Src]
	} else {
		val = constScalar(uint64(int64(ins.Imm)))
	}
	if isAtomic {
		return v.stepAtomic(idx, ins, st, val, size)
	}

	base := st.Regs[ins.Dst]
	switch base.Type {
	case TypeCtx:
		if err := v.ctxAccess(idx, ins, size); err != nil {
			return err
		}
		if val.Type != TypeScalar {
			return &Error{Insn: idx, Msg: "storing pointer into ctx"}
		}
	case TypeStack:
		var full *RegState
		if ins.Op.Class() == insn.ClassSTX {
			full = &val
		}
		if err := st.Stack.write(base.Off+int64(ins.Off), size, full); err != nil {
			return &Error{Insn: idx, Msg: err.Error()}
		}
		if err := checkRefsAlive(idx, st); err != nil {
			return err
		}
	case TypeMapValue:
		if err := mapValueAccess(idx, ins, base, size); err != nil {
			return err
		}
		if val.Type != TypeScalar {
			return &Error{Insn: idx, Msg: "storing pointer into map value"}
		}
	case TypeHeap, TypeScalar:
		switch val.Type {
		case TypeScalar, TypeInvalid:
			if val.Type == TypeInvalid {
				return &Error{Insn: idx, Msg: "storing uninitialized register"}
			}
		case TypeHeap:
			if size == 8 && v.cfg.ShareHeap {
				v.facts[idx].StoresHeapPtr = true
			}
		default:
			return &Error{Insn: idx, Msg: fmt.Sprintf(
				"storing %s pointer into extension heap leaks kernel state", val.Type)}
		}
		if err := v.heapAccess(idx, ins, st, ins.Dst, false, size); err != nil {
			return err
		}
	case TypeObj:
		return &Error{Insn: idx, Msg: "kernel objects are read-only"}
	default:
		return &Error{Insn: idx, Msg: "store through invalid register"}
	}
	return nil
}

func (v *verifier) stepAtomic(idx int, ins insn.Instruction, st *state, val RegState, size int) error {
	if size != 4 && size != 8 {
		return &Error{Insn: idx, Msg: "atomic operations require 4- or 8-byte size"}
	}
	if val.Type != TypeScalar {
		return &Error{Insn: idx, Msg: "atomic operand must be scalar"}
	}
	switch op := ins.Imm; op {
	case insn.AtomicAdd, insn.AtomicOr, insn.AtomicAnd, insn.AtomicXor:
	case insn.AtomicAdd | insn.AtomicFetch, insn.AtomicOr | insn.AtomicFetch,
		insn.AtomicAnd | insn.AtomicFetch, insn.AtomicXor | insn.AtomicFetch,
		insn.AtomicXchg:
		st.Regs[ins.Src] = boundedScalar(size)
	case insn.AtomicCmpXchg:
		if err := v.checkReadable(idx, st, insn.R0); err != nil {
			return err
		}
		if st.Regs[insn.R0].Type != TypeScalar {
			return &Error{Insn: idx, Msg: "cmpxchg expects scalar in r0"}
		}
		st.Regs[insn.R0] = boundedScalar(size)
	default:
		return &Error{Insn: idx, Msg: fmt.Sprintf("unknown atomic op %#x", ins.Imm)}
	}

	base := st.Regs[ins.Dst]
	switch base.Type {
	case TypeMapValue:
		return mapValueAccess(idx, ins, base, size)
	case TypeHeap, TypeScalar:
		return v.heapAccess(idx, ins, st, ins.Dst, false, size)
	default:
		return &Error{Insn: idx, Msg: fmt.Sprintf("atomic access through %s register", base.Type)}
	}
}

// stepBranch handles conditional jumps with per-edge refinement.
func (v *verifier) stepBranch(idx int, ins insn.Instruction, st *state) ([]succState, error) {
	op := ins.Op.JmpOp()
	is64 := ins.Op.Class() == insn.ClassJMP
	if err := v.checkReadable(idx, st, ins.Dst); err != nil {
		return nil, err
	}
	src, err := v.operand(idx, ins, st)
	if err != nil {
		return nil, err
	}
	dst := st.Regs[ins.Dst]
	target := idx + 1 + int(ins.Off)

	// NULL compares against provably non-null pointers take one edge
	// (kernel pointers are never zero; heap pointers are sanitized).
	if is64 && nullable(dst.Type) && !dst.MaybeNull && src.IsNullConst() &&
		(op == insn.JmpEq || op == insn.JmpNe) {
		if op == insn.JmpNe {
			return v.one(target, st), nil
		}
		return v.one(idx+1, st), nil
	}

	// NULL checks on maybe-null pointers.
	if is64 && nullable(dst.Type) && src.IsNullConst() && (op == insn.JmpEq || op == insn.JmpNe) {
		taken := st.clone()
		fall := st
		var nullSt, ptrSt *state
		if op == insn.JmpEq {
			nullSt, ptrSt = taken, fall
		} else {
			nullSt, ptrSt = fall, taken
		}
		markNull(nullSt, ins.Dst)
		markNonNull(ptrSt, ins.Dst)
		return v.two(target, taken, idx, fall), nil
	}

	// Pointer/pointer or pointer/scalar equality comparisons: allowed for
	// heap pointers (their bits are extension-visible); no refinement.
	dstPtr := dst.Type != TypeScalar
	srcPtr := src.Type != TypeScalar
	if dstPtr || srcPtr {
		heapOK := (dst.Type == TypeHeap || dst.Type == TypeScalar) &&
			(src.Type == TypeHeap || src.Type == TypeScalar)
		if !(heapOK && (op == insn.JmpEq || op == insn.JmpNe)) {
			return nil, &Error{Insn: idx, Msg: fmt.Sprintf(
				"comparison %#x between %s and %s prohibited", op, dst.Type, src.Type)}
		}
		return v.two(target, st.clone(), idx, st), nil
	}

	// Constant-foldable branches take a single edge, which is what lets the
	// walk unroll counted loops to completion.
	if is64 {
		if dec, ok := evalConstBranch(op, dst, src); ok {
			if dec {
				return v.one(target, st), nil
			}
			return v.one(idx+1, st), nil
		}
	}

	taken := st.clone()
	fall := st
	if is64 && op != insn.JmpSet {
		td, ts := taken.Regs[ins.Dst], src
		refineCompare(op, &td, &ts)
		taken.Regs[ins.Dst] = td
		if !ins.Op.UsesImm() {
			taken.Regs[ins.Src] = ts
		}
		fd, fs := fall.Regs[ins.Dst], src
		refineCompare(invertJmp(op), &fd, &fs)
		fall.Regs[ins.Dst] = fd
		if !ins.Op.UsesImm() {
			fall.Regs[ins.Src] = fs
		}
	}
	return v.two(target, taken, idx, fall), nil
}

// evalConstBranch decides a comparison whose outcome is statically known.
func evalConstBranch(op uint8, a, b RegState) (bool, bool) {
	decide := func(takenIf, notIf bool) (bool, bool) {
		if takenIf {
			return true, true
		}
		if notIf {
			return false, true
		}
		return false, false
	}
	switch op {
	case insn.JmpEq:
		av, aok := a.IsConst()
		bv, bok := b.IsConst()
		if aok && bok {
			return av == bv, true
		}
		if a.UMax < b.UMin || a.UMin > b.UMax {
			return false, true
		}
	case insn.JmpNe:
		av, aok := a.IsConst()
		bv, bok := b.IsConst()
		if aok && bok {
			return av != bv, true
		}
		if a.UMax < b.UMin || a.UMin > b.UMax {
			return true, true
		}
	case insn.JmpGt:
		return decide(a.UMin > b.UMax, a.UMax <= b.UMin)
	case insn.JmpGe:
		return decide(a.UMin >= b.UMax, a.UMax < b.UMin)
	case insn.JmpLt:
		return decide(a.UMax < b.UMin, a.UMin >= b.UMax)
	case insn.JmpLe:
		return decide(a.UMax <= b.UMin, a.UMin > b.UMax)
	case insn.JmpSgt:
		return decide(a.SMin > b.SMax, a.SMax <= b.SMin)
	case insn.JmpSge:
		return decide(a.SMin >= b.SMax, a.SMax < b.SMin)
	case insn.JmpSlt:
		return decide(a.SMax < b.SMin, a.SMin >= b.SMax)
	case insn.JmpSle:
		return decide(a.SMax <= b.SMin, a.SMin > b.SMax)
	}
	return false, false
}

// markNull rewrites a pointer register to scalar zero on the NULL branch,
// dropping the associated reference for acquired objects (nothing is held).
func markNull(st *state, r insn.Reg) {
	reg := &st.Regs[r]
	if reg.Type == TypeObj {
		st.release(reg.RefSite)
	}
	st.Regs[r] = constScalar(0)
}

func markNonNull(st *state, r insn.Reg) {
	st.Regs[r].MaybeNull = false
}

// checkExit enforces the exit contract: r0 holds a scalar return code, all
// references are released, and no locks are held.
func (v *verifier) checkExit(idx int, st *state) error {
	if st.Regs[insn.R0].Type != TypeScalar {
		return &Error{Insn: idx, Msg: "r0 must hold a scalar return value at exit"}
	}
	if len(st.Refs) != 0 {
		return &Error{Insn: idx, Msg: fmt.Sprintf(
			"kernel references not released at exit: %s", refsString(st.Refs))}
	}
	if st.LockDepth != 0 {
		return &Error{Insn: idx, Msg: fmt.Sprintf(
			"%d spin lock(s) still held at exit", st.LockDepth)}
	}
	return nil
}
