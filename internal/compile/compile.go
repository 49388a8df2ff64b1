// Package compile lowers instrumented KFlex bytecode into the pre-decoded
// form the VM dispatches natively. It is the analogue of the paper's JIT
// back end (§4.2): Kie's internal opcodes and the eBPF instruction set are
// translated once, at load time, into a dense lowered ISA whose operands
// are fully resolved — immediates sign- or zero-extended, shift amounts
// masked, branch targets absolute, memory offsets widened — so the
// execution loop never re-decodes an instruction and never branches on
// load-time configuration.
//
// Lowering performs two transformations beyond pre-decoding (performance
// mode is not one of them: Kie never emits the read guards it omits, so the
// stream arriving here is already the one to run, §3.2/§4.2):
//
//   - Adjacent instructions are clustered into one lowered instruction
//     executed in one dispatch (§4.2: the JIT lowers a guard to one or two
//     hardware instructions next to the access it protects). A cluster is
//     at most three instructions joined pairwise by one of six kinds: a
//     guard and its load or store (the SFI sanitize-then-access sequence
//     of §3.2); a probe and its branch (the *terminate probe on an
//     unbounded loop back edge, §3.3); a load and the conditional branch
//     on the loaded register (the chain step and the tag or key check); a
//     register move folded into the ALU-immediate operation on the same
//     register that follows it (three-address form); an add-immediate and
//     an add-register on one register (base + displacement + index); and
//     an and-immediate followed by a left shift on one register (the
//     scaled index).
//   - Helper calls are turned into link-time-resolved call sites: the
//     registry lookup happens once, in Link, not per call.

// The output is split into two artifacts so compilation can be cached
// across extension generations: a Unit is position-independent — it embeds
// no heap addresses — and may be shared by any number of loads of the same
// spec; Link binds a Unit to one extension instance (heap base/mask, user
// mapping base, resolved helper table) without copying or patching code.
//
// Translation validation: lowering is a local, order-preserving map —
// every architectural instruction lowers 1:1 or into exactly one cluster,
// and control flow only enters a cluster at its first instruction.
// Validate checks that of every Unit statically; the differential harness
// at the repository root replays the test corpus on the lowered code and on
// the reference semantics (internal/refsem) and requires identical results,
// work counters and heap images (see DESIGN.md §3.5).
package compile

import (
	"fmt"

	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/kie"
)

// Op is a lowered opcode. The set is dense: one opcode per operand form,
// so the dispatch loop is a single flat switch with no operand decoding.
type Op uint8

// Lowered opcodes.
const (
	OpInvalid Op = iota

	// 64-bit ALU, immediate form (Imm pre-sign-extended, shifts pre-masked).
	OpMov64Imm // also the lowering of LDDW: Imm carries the full constant
	OpAdd64Imm
	OpSub64Imm
	OpMul64Imm
	OpDiv64Imm
	OpOr64Imm
	OpAnd64Imm
	OpLsh64Imm
	OpRsh64Imm
	OpMod64Imm
	OpXor64Imm
	OpArsh64Imm

	// 64-bit ALU, register form.
	OpMov64Reg
	OpAdd64Reg
	OpSub64Reg
	OpMul64Reg
	OpDiv64Reg
	OpOr64Reg
	OpAnd64Reg
	OpLsh64Reg
	OpRsh64Reg
	OpMod64Reg
	OpXor64Reg
	OpArsh64Reg

	OpNeg64

	// 32-bit ALU, immediate form (Imm pre-zero-extended, shifts pre-masked).
	OpMov32Imm
	OpAdd32Imm
	OpSub32Imm
	OpMul32Imm
	OpDiv32Imm
	OpOr32Imm
	OpAnd32Imm
	OpLsh32Imm
	OpRsh32Imm
	OpMod32Imm
	OpXor32Imm
	OpArsh32Imm

	// 32-bit ALU, register form.
	OpMov32Reg
	OpAdd32Reg
	OpSub32Reg
	OpMul32Reg
	OpDiv32Reg
	OpOr32Reg
	OpAnd32Reg
	OpLsh32Reg
	OpRsh32Reg
	OpMod32Reg
	OpXor32Reg
	OpArsh32Reg

	OpNeg32

	// Byte swaps (AluEnd with the width folded into the opcode).
	OpBswap16
	OpBswap32
	OpBswap64

	// Memory. Load/StoreReg keep the sign-extended offset in Imm;
	// StoreImm needs Imm for the value and keeps the offset in Off.
	OpLoad     // dst = *(Size*)(src + Imm)
	OpStoreReg // *(Size*)(dst + Imm) = src
	OpStoreImm // *(Size*)(dst + Off) = Imm
	OpAtomic   // atomic RMW; Imm carries the atomic sub-op

	// Control. Branch targets are absolute lowered PCs in Target.
	OpJa
	OpJcc64Imm // Sub = condition bits, Imm = sign-extended operand
	OpJcc64Reg
	OpJcc32Imm // Sub = condition bits, Imm = zero-extended operand
	OpJcc32Reg
	OpCall // Target = resolved call-site index, Imm = helper ID
	OpExit

	// Kie internal opcodes (§3.2–§3.4). Guards read the heap base/mask
	// bound at link time; probes keep their CP id in Off.
	OpGuard
	OpGuardRd
	OpXlat
	OpProbe

	// Clusters: one dispatch retiring two or three architectural
	// instructions. A move folded into an ALU-immediate operation needs no
	// opcode of its own: those read Src, which equals Dst unless a move
	// was folded in.
	OpGuardLoad     // guard src, then dst = *(Size*)(src + Imm)
	OpGuardRdLoad   // read-guard variant
	OpGuardStoreReg // guard dst, then *(Size*)(dst + Imm) = src
	OpGuardStoreImm // guard dst, then *(Size*)(dst + Off) = Imm
	OpProbeJa       // probe (CP in Off), then pc = Target
	OpProbeJcc      // probe, then conditional branch on Dst (operand per Form)
	OpLoadJcc       // [guard src,] dst = *(Size*)(src + Off), then branch on dst
	OpAndLsh64      // dst = (src & Imm) << Off
	OpAdd64Idx      // dst = src + Imm + Idx

	numOps
)

// Form flags of a clustered branch (OpProbeJcc, OpLoadJcc), in Insn.Form.
const (
	FormImm     uint8 = 1 << 0 // compare against Imm instead of register Idx
	Form32      uint8 = 1 << 1 // 32-bit compare
	FormGuard   uint8 = 1 << 2 // OpLoadJcc: a guard of src comes first
	FormGuardRd uint8 = 1 << 3 // OpLoadJcc: that guard is a read guard
)

// Insn is one pre-decoded lowered instruction. 32 bytes; the dispatch loop
// reads it through a pointer, so no per-step copy happens either.
type Insn struct {
	Op   Op
	Sub  uint8 // conditional-branch condition bits (insn.Jmp*)
	Dst  uint8
	Src  uint8
	Size uint8 // memory access width in bytes
	// Idx is a cluster's second source register: the compare register of
	// a clustered branch, the index of OpAdd64Idx.
	Idx  uint8
	Form uint8 // clustered-branch flags (Form*)
	// N is the number of architectural instructions the dispatch retires:
	// 1, or the length (2 or 3) of a cluster.
	N uint8

	// OrigPC is the index in the instrumented stream this lowered
	// instruction retires (for a cluster with a memory access, the
	// access: faults are attributed to it). Aborts and errors report it,
	// so cancellation PCs name instrumented instructions.
	OrigPC int32
	// Target is the absolute lowered PC of a branch, or the call-site
	// index of an OpCall.
	Target int32
	// Off is the memory offset of OpStoreImm/OpAtomic/OpLoadJcc, the
	// cancellation-point ID of probes, and OpAndLsh64's shift.
	Off int32

	// Imm is the fully resolved immediate: sign/zero-extended constant,
	// pre-masked shift amount, widened memory offset, store value, or
	// atomic sub-op.
	Imm uint64
}

// Metrics describes one lowering in the pipeline's terms.
type Metrics struct {
	// SrcInsns is the instrumented-stream length, LoweredInsns the
	// lowered-stream length; the difference is the number of joins.
	SrcInsns, LoweredInsns int
	// The Fused counts are joins by kind: one per adjacent pair a cluster
	// retires in one dispatch, so a guard+load+branch cluster counts one
	// FusedGuardLoad and one FusedLoadBranch. FusedThreeAddr counts folded
	// moves and add-immediate+add-register pairs alike.
	FusedGuardLoad, FusedGuardStore, FusedProbeBranch int
	FusedLoadBranch, FusedThreeAddr, FusedScaledIndex int
}

// Unit is the cacheable, position-independent lowered program: it embeds
// no heap addresses and no resolved helper pointers, so one Unit can back
// every generation of an extension (the supervisor's reload path re-links
// the cached Unit against a fresh heap).
type Unit struct {
	Code []Insn
	// PCMap maps each lowered PC to the instrumented-stream PC of the
	// first instruction its cluster retires.
	PCMap []int32
	// HelperIDs lists the helper ID of each call site, in Target order.
	HelperIDs []int32
	Metrics   Metrics
}

// Linkage binds a Unit to one extension instance.
type Linkage struct {
	// HeapBase/HeapMask sanitize heap pointers (zero without a heap).
	HeapBase, HeapMask uint64
	// UserBase rebases translate-on-store pointers (§3.4).
	UserBase uint64
	// Helpers resolves call sites.
	Helpers *kernel.Registry
}

// Linked is an executable lowered program: the shared Unit code plus the
// per-instance constants and resolved helper table. Code is aliased, not
// copied — Insn streams are immutable after lowering.
type Linked struct {
	Code []Insn
	// HeapBase/HeapMask/UserBase are the guard and translate constants
	// folded out of the dispatch loop: the VM loads them once per
	// invocation, exactly as the paper's JIT pins them in registers.
	HeapBase, HeapMask, UserBase uint64
	// Helpers holds each call site's resolved spec, indexed by the
	// OpCall Target.
	Helpers []*kernel.HelperSpec
}

// Link resolves the Unit's call sites against the registry and binds the
// heap constants. It never mutates the Unit.
func (u *Unit) Link(lk Linkage) (*Linked, error) {
	helpers := make([]*kernel.HelperSpec, len(u.HelperIDs))
	for i, id := range u.HelperIDs {
		spec, ok := lk.Helpers.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("compile: link: unknown helper %d", id)
		}
		helpers[i] = spec
	}
	return &Linked{
		Code:     u.Code,
		HeapBase: lk.HeapBase,
		HeapMask: lk.HeapMask,
		UserBase: lk.UserBase,
		Helpers:  helpers,
	}, nil
}

// Lower translates an instrumented program into the lowered ISA. The
// input must be Kie output over verified bytecode; malformed streams —
// unknown opcodes, out-of-range branches — are rejected here rather than
// at execution time.
func Lower(rep *kie.Report) (*Unit, error) {
	src := rep.Prog
	n := len(src)
	if n == 0 {
		return nil, fmt.Errorf("compile: empty program")
	}

	// Branch-target set over the instrumented stream: a cluster must not
	// swallow an instruction control flow can enter at.
	isTarget := make([]bool, n)
	for i, ins := range src {
		if !ins.IsJump() {
			continue
		}
		t := i + 1 + int(ins.Off)
		if t < 0 || t >= n {
			return nil, fmt.Errorf("compile: insn %d: branch target %d out of program", i, t)
		}
		isTarget[t] = true
	}

	// Clusters grow greedily to at most three instructions: an
	// instruction joins the one before it when it is that one's unique
	// fall-through successor (not a branch target) and the pair is a join
	// kind. Branch targets temporarily hold instrumented-stream indices;
	// the last pass rewrites them through srcToLow.
	u := &Unit{Metrics: Metrics{SrcInsns: n}}
	srcToLow := make([]int32, n+1)
	for i := 0; i < n; {
		end := i + 1
		for ; end < n && end-i < 3 && !isTarget[end]; end++ {
			k := join(src[end-1], src[end])
			if k == joinNone {
				break
			}
			*u.Metrics.counter(k)++
		}
		c := src[i:end]
		li, err := lowerCluster(c, i, u)
		if err != nil {
			return nil, err
		}
		li.N = uint8(len(c))
		for j := i; j < end; j++ {
			srcToLow[j] = int32(len(u.Code))
		}
		u.Code = append(u.Code, li)
		u.PCMap = append(u.PCMap, int32(i))
		i = end
	}
	srcToLow[n] = int32(len(u.Code))

	for j := range u.Code {
		if hasTarget(u.Code[j].Op) {
			u.Code[j].Target = srcToLow[u.Code[j].Target]
		}
	}
	u.Metrics.LoweredInsns = len(u.Code)
	return u, nil
}

// hasTarget reports whether a lowered opcode's Target is a branch target.
func hasTarget(op Op) bool {
	switch op {
	case OpJa, OpJcc64Imm, OpJcc64Reg, OpJcc32Imm, OpJcc32Reg, OpProbeJa, OpProbeJcc, OpLoadJcc:
		return true
	}
	return false
}

// joinKind classifies an adjacent pair one cluster may retire.
type joinKind uint8

const (
	joinNone joinKind = iota
	joinGuardLoad
	joinGuardStore
	joinProbeBranch
	joinLoadBranch
	joinThreeAddr
	joinScaledIndex
)

// counter returns the Metrics field that counts joins of kind k.
func (m *Metrics) counter(k joinKind) *int {
	switch k {
	case joinGuardLoad:
		return &m.FusedGuardLoad
	case joinGuardStore:
		return &m.FusedGuardStore
	case joinProbeBranch:
		return &m.FusedProbeBranch
	case joinLoadBranch:
		return &m.FusedLoadBranch
	case joinThreeAddr:
		return &m.FusedThreeAddr
	}
	return &m.FusedScaledIndex
}

// join decides whether b may retire in one dispatch with a, the
// instruction before it: a guard with the access through the register it
// sanitized, a probe with its branch, a load with a conditional branch on
// the loaded register, or one of the ALU idioms on a single register.
// Atomics and Kie opcodes other than a guard or probe head never join.
func join(a, b insn.Instruction) joinKind {
	switch a.Op {
	case insn.OpGuard:
		switch {
		case b.Op.Class() == insn.ClassLDX && b.Src == a.Dst:
			return joinGuardLoad
		case b.Op.Class() == insn.ClassSTX && b.Op.Mode() != insn.ModeATOMIC && b.Dst == a.Dst,
			b.Op.Class() == insn.ClassST && b.Dst == a.Dst:
			return joinGuardStore
		}
	case insn.OpGuardRd:
		if b.Op.Class() == insn.ClassLDX && b.Src == a.Dst {
			return joinGuardLoad
		}
	case insn.OpProbe:
		if b.IsJump() {
			return joinProbeBranch
		}
	case opMov64Reg, opMov32Reg:
		// A 32-bit move zero-extends, so only a 32-bit operation may read
		// through it.
		if aluImm(b) && b.Dst == a.Dst && (a.Op == opMov64Reg || b.Op.Class() == insn.ClassALU) {
			return joinThreeAddr
		}
	case opAdd64Imm:
		if b.Op == opAdd64Reg && b.Dst == a.Dst && b.Src != a.Dst {
			return joinThreeAddr
		}
	case opAnd64Imm:
		if b.Op == opLsh64Imm && b.Dst == a.Dst {
			return joinScaledIndex
		}
	}
	if a.Op.Class() == insn.ClassLDX && b.IsCond() && b.Dst == a.Dst {
		return joinLoadBranch
	}
	return joinNone
}

// The architectural opcodes of the ALU joins.
const (
	opMov64Reg = insn.Opcode(insn.ClassALU64 | insn.AluMov | insn.SrcX)
	opMov32Reg = insn.Opcode(insn.ClassALU | insn.AluMov | insn.SrcX)
	opAdd64Imm = insn.Opcode(insn.ClassALU64 | insn.AluAdd | insn.SrcK)
	opAdd64Reg = insn.Opcode(insn.ClassALU64 | insn.AluAdd | insn.SrcX)
	opAnd64Imm = insn.Opcode(insn.ClassALU64 | insn.AluAnd | insn.SrcK)
	opLsh64Imm = insn.Opcode(insn.ClassALU64 | insn.AluLsh | insn.SrcK)
)

// aluImm reports whether ins is an ALU-immediate operation that reads its
// destination (a move, a negation or a byte swap does not).
func aluImm(ins insn.Instruction) bool {
	cls := ins.Op.Class()
	if cls != insn.ClassALU64 && cls != insn.ClassALU || !ins.Op.UsesImm() || ins.Op.IsInternal() {
		return false
	}
	_, ok := aluOps[ins.Op.AluOp()]
	return ok && ins.Op.AluOp() != insn.AluMov
}

// lowerCluster lowers the cluster c that starts at instrumented index i.
func lowerCluster(c []insn.Instruction, i int, u *Unit) (Insn, error) {
	head := c[0]
	switch {
	case len(c) == 1:
		return lowerOne(head, i, u)
	case head.Op == insn.OpProbe:
		return fuseProbe(head, c[1], i), nil
	case head.Op == insn.OpGuard || head.Op == insn.OpGuardRd:
		if len(c) == 3 {
			li := fuseLoadJcc(c[1], c[2], i+1)
			li.Form |= FormGuard
			if head.Op == insn.OpGuardRd {
				li.Form |= FormGuardRd
			}
			return li, nil
		}
		return fuseGuard(head, c[1], i), nil
	case head.Op.Class() == insn.ClassLDX:
		return fuseLoadJcc(head, c[1], i), nil
	}
	// An ALU cluster: an optional folded move, then an ALU-immediate
	// operation or one of the two-instruction idioms on the same register.
	srcReg := head.Dst
	if head.Op.AluOp() == insn.AluMov {
		srcReg, c = head.Src, c[1:]
	}
	li := Insn{OrigPC: int32(i), Dst: uint8(c[0].Dst), Src: uint8(srcReg)}
	switch {
	case len(c) == 1:
		return lowerALU(li, c[0], c[0].Op.Class() == insn.ClassALU64)
	case c[1].Op.AluOp() == insn.AluLsh:
		li.Op, li.Imm, li.Off = OpAndLsh64, uint64(int64(c[0].Imm)), c[1].Imm&63
	default:
		li.Op, li.Imm, li.Idx = OpAdd64Idx, uint64(int64(c[0].Imm)), uint8(c[1].Src)
	}
	return li, nil
}

// fuseGuard lowers a guard and the access it protects, at instrumented
// index i. Faults of the access are attributed to the access instruction,
// as the instrumented stream's semantics attributes them.
func fuseGuard(guard, acc insn.Instruction, i int) Insn {
	li := Insn{
		Dst: uint8(acc.Dst), Src: uint8(acc.Src),
		Size: uint8(acc.Op.SizeBytes()), OrigPC: int32(i + 1),
		Imm: uint64(int64(acc.Off)),
	}
	switch acc.Op.Class() {
	case insn.ClassLDX:
		li.Op = OpGuardLoad
		if guard.Op == insn.OpGuardRd {
			li.Op = OpGuardRdLoad
		}
	case insn.ClassSTX:
		li.Op = OpGuardStoreReg
	default:
		li.Op, li.Src, li.Off, li.Imm = OpGuardStoreImm, 0, int32(acc.Off), uint64(int64(acc.Imm))
	}
	return li
}

// fuseProbe lowers a probe and its branch at instrumented index i. Aborts
// at the probe report the probe's PC; the branch half only retires after
// the probe passes.
func fuseProbe(probe, br insn.Instruction, i int) Insn {
	target := int32(i + 2 + int(br.Off))
	if br.Op.Class() == insn.ClassJMP && br.Op.JmpOp() == insn.JmpA {
		return Insn{Op: OpProbeJa, OrigPC: int32(i), Off: probe.Imm, Target: target}
	}
	li := branchForm(br)
	li.Op, li.OrigPC, li.Off, li.Target = OpProbeJcc, int32(i), probe.Imm, target
	return li
}

// fuseLoadJcc lowers a load and the conditional branch on its result; i is
// the load's instrumented index, which faults are attributed to.
func fuseLoadJcc(ld, br insn.Instruction, i int) Insn {
	li := branchForm(br)
	li.Op, li.OrigPC, li.Target = OpLoadJcc, int32(i), int32(i+2+int(br.Off))
	li.Src, li.Size, li.Off = uint8(ld.Src), uint8(ld.Op.SizeBytes()), int32(ld.Off)
	return li
}

// branchForm lowers the compare of a clustered conditional branch: the
// condition, its register operands and Form flags, and the immediate.
func branchForm(br insn.Instruction) Insn {
	li := Insn{Sub: br.Op.JmpOp(), Dst: uint8(br.Dst), Idx: uint8(br.Src)}
	if br.Op.Class() == insn.ClassJMP32 {
		li.Form |= Form32
	}
	if br.Op.UsesImm() {
		li.Form |= FormImm
		li.Imm = uint64(int64(br.Imm))
		if li.Form&Form32 != 0 {
			li.Imm = uint64(uint32(br.Imm))
		}
	}
	return li
}

// lowerOne lowers a single instruction at instrumented index i. Call sites
// append to the unit's helper table.
func lowerOne(ins insn.Instruction, i int, u *Unit) (Insn, error) {
	li := Insn{OrigPC: int32(i), Dst: uint8(ins.Dst), Src: uint8(ins.Src)}
	op := ins.Op

	switch op {
	case insn.OpGuard:
		li.Op = OpGuard
		return li, nil
	case insn.OpGuardRd:
		li.Op = OpGuardRd
		return li, nil
	case insn.OpProbe:
		li.Op = OpProbe
		li.Off = ins.Imm
		return li, nil
	case insn.OpXlat:
		li.Op = OpXlat
		return li, nil
	}

	switch op.Class() {
	case insn.ClassALU64, insn.ClassALU:
		if op.UsesImm() {
			li.Src = li.Dst // an unfolded ALU-immediate operation reads Dst
		}
		return lowerALU(li, ins, op.Class() == insn.ClassALU64)

	case insn.ClassLD:
		if !ins.IsLoadImm64() {
			return li, fmt.Errorf("compile: insn %d: unsupported LD mode %#02x", i, uint8(op))
		}
		li.Op = OpMov64Imm
		li.Imm = ins.Imm64
		return li, nil

	case insn.ClassLDX:
		li.Op = OpLoad
		li.Size = uint8(op.SizeBytes())
		li.Imm = uint64(int64(ins.Off))
		return li, nil

	case insn.ClassST:
		li.Op = OpStoreImm
		li.Size = uint8(op.SizeBytes())
		li.Off = int32(ins.Off)
		li.Imm = uint64(int64(ins.Imm))
		return li, nil

	case insn.ClassSTX:
		li.Size = uint8(op.SizeBytes())
		if op.Mode() == insn.ModeATOMIC {
			li.Op = OpAtomic
			li.Off = int32(ins.Off)
			li.Imm = uint64(uint32(ins.Imm))
			return li, nil
		}
		li.Op = OpStoreReg
		li.Imm = uint64(int64(ins.Off))
		return li, nil

	case insn.ClassJMP:
		switch op.JmpOp() {
		case insn.JmpCall:
			li.Op = OpCall
			li.Target = int32(len(u.HelperIDs))
			li.Imm = uint64(uint32(ins.Imm))
			u.HelperIDs = append(u.HelperIDs, ins.Imm)
			return li, nil
		case insn.JmpExit:
			li.Op = OpExit
			return li, nil
		case insn.JmpA:
			li.Op = OpJa
			li.Target = int32(i + 1 + int(ins.Off))
			return li, nil
		default:
			li.Sub = op.JmpOp()
			li.Target = int32(i + 1 + int(ins.Off))
			if op.UsesImm() {
				li.Op = OpJcc64Imm
				li.Imm = uint64(int64(ins.Imm))
			} else {
				li.Op = OpJcc64Reg
			}
			return li, nil
		}

	case insn.ClassJMP32:
		li.Sub = op.JmpOp()
		// Every JMP32 sub-op is evaluated through the generic predicate;
		// the JA/CALL/EXIT bit patterns are never taken there, so they
		// keep a valid dummy fall-through target.
		if ins.IsJump() {
			li.Target = int32(i + 1 + int(ins.Off))
		} else {
			li.Target = int32(i + 1)
		}
		if op.UsesImm() {
			li.Op = OpJcc32Imm
			li.Imm = uint64(uint32(ins.Imm))
		} else {
			li.Op = OpJcc32Reg
		}
		return li, nil
	}
	return li, fmt.Errorf("compile: insn %d: unknown opcode %#02x", i, uint8(op))
}

// aluOps maps an ALU sub-op to its lowered opcode quadruple.
var aluOps = map[uint8][4]Op{
	// {64imm, 64reg, 32imm, 32reg}
	insn.AluAdd:  {OpAdd64Imm, OpAdd64Reg, OpAdd32Imm, OpAdd32Reg},
	insn.AluSub:  {OpSub64Imm, OpSub64Reg, OpSub32Imm, OpSub32Reg},
	insn.AluMul:  {OpMul64Imm, OpMul64Reg, OpMul32Imm, OpMul32Reg},
	insn.AluDiv:  {OpDiv64Imm, OpDiv64Reg, OpDiv32Imm, OpDiv32Reg},
	insn.AluOr:   {OpOr64Imm, OpOr64Reg, OpOr32Imm, OpOr32Reg},
	insn.AluAnd:  {OpAnd64Imm, OpAnd64Reg, OpAnd32Imm, OpAnd32Reg},
	insn.AluLsh:  {OpLsh64Imm, OpLsh64Reg, OpLsh32Imm, OpLsh32Reg},
	insn.AluRsh:  {OpRsh64Imm, OpRsh64Reg, OpRsh32Imm, OpRsh32Reg},
	insn.AluMod:  {OpMod64Imm, OpMod64Reg, OpMod32Imm, OpMod32Reg},
	insn.AluXor:  {OpXor64Imm, OpXor64Reg, OpXor32Imm, OpXor32Reg},
	insn.AluMov:  {OpMov64Imm, OpMov64Reg, OpMov32Imm, OpMov32Reg},
	insn.AluArsh: {OpArsh64Imm, OpArsh64Reg, OpArsh32Imm, OpArsh32Reg},
}

func lowerALU(li Insn, ins insn.Instruction, is64 bool) (Insn, error) {
	op := ins.Op
	switch op.AluOp() {
	case insn.AluNeg:
		if is64 {
			li.Op = OpNeg64
		} else {
			li.Op = OpNeg32
		}
		return li, nil
	case insn.AluEnd:
		switch ins.Imm {
		case 16:
			li.Op = OpBswap16
		case 32:
			li.Op = OpBswap32
		default:
			li.Op = OpBswap64
		}
		return li, nil
	}
	quad, ok := aluOps[op.AluOp()]
	if !ok {
		cls := "ALU64"
		if !is64 {
			cls = "ALU32"
		}
		return li, fmt.Errorf("compile: insn %d: bad %s op %#x", li.OrigPC, cls, uint8(op))
	}
	useImm := op.UsesImm()
	switch {
	case is64 && useImm:
		li.Op = quad[0]
		li.Imm = uint64(int64(ins.Imm))
		if op.AluOp() == insn.AluLsh || op.AluOp() == insn.AluRsh || op.AluOp() == insn.AluArsh {
			li.Imm &= 63
		}
	case is64:
		li.Op = quad[1]
	case useImm:
		li.Op = quad[2]
		li.Imm = uint64(uint32(ins.Imm))
		if op.AluOp() == insn.AluLsh || op.AluOp() == insn.AluRsh || op.AluOp() == insn.AluArsh {
			li.Imm &= 31
		}
	default:
		li.Op = quad[3]
	}
	return li, nil
}
