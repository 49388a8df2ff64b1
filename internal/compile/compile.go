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
//   - The dominant instruction pairs Kie emits are fused into
//     superinstructions executed in one dispatch: guard+load, guard+store
//     (the SFI sanitize-then-access sequence of §3.2, which the JIT lowers
//     to adjacent hardware instructions) and probe+branch (the *terminate
//     probe on an unbounded loop back edge, §3.3).
//   - Helper calls are turned into link-time-resolved call sites: the
//     registry lookup the interpreter performs per call happens once in
//     Link.
//
// The output is split into two artifacts so compilation can be cached
// across extension generations: a Unit is position-independent — it embeds
// no heap addresses — and may be shared by any number of loads of the same
// spec; Link binds a Unit to one extension instance (heap base/mask, user
// mapping base, resolved helper table) without copying or patching code.
//
// Translation validation: lowering is a local, structure-preserving map —
// every architectural instruction either lowers 1:1 or is fused with its
// unique successor when no control flow can enter between the two. The
// differential harness at the repository root replays the full test corpus
// on both tiers and requires byte-identical results and work counters (see
// DESIGN.md §3.5).
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

	// Fused superinstructions: one dispatch retiring two architectural
	// instructions (§4.2: Kie opcodes lower to one or two hardware
	// instructions adjacent to the access they protect).
	OpGuardLoad     // guard src, then dst = *(Size*)(src + Imm)
	OpGuardRdLoad   // read-guard variant
	OpGuardStoreReg // guard dst, then *(Size*)(dst + Imm) = src
	OpGuardStoreImm // guard dst, then *(Size*)(dst + Off) = Imm
	OpProbeJa       // probe (CP in Off), then pc = Target
	OpProbeJcc      // probe, then conditional branch (form in Size)

	numOps
)

// OpProbeJcc form flags carried in Insn.Size.
const (
	FormImm uint8 = 1 << 0 // compare against Imm instead of Src
	Form32  uint8 = 1 << 1 // 32-bit compare
)

// Insn is one pre-decoded lowered instruction. 32 bytes; the dispatch loop
// reads it through a pointer, so no per-step copy happens either.
type Insn struct {
	Op   Op
	Sub  uint8 // conditional-branch condition bits (insn.Jmp*)
	Dst  uint8
	Src  uint8
	Size uint8 // memory access width in bytes; OpProbeJcc form flags

	// OrigPC is the index in the instrumented stream this lowered
	// instruction retires (for fused pairs: the instruction faults are
	// attributed to). Aborts and errors report it, keeping cancellation
	// PCs identical across tiers.
	OrigPC int32
	// Target is the absolute lowered PC of a branch, or the call-site
	// index of an OpCall.
	Target int32
	// Off is the memory offset of OpStoreImm/OpAtomic and the
	// cancellation-point ID of probes.
	Off int32

	// Imm is the fully resolved immediate: sign/zero-extended constant,
	// pre-masked shift amount, widened memory offset, store value, or
	// atomic sub-op.
	Imm uint64
}

// Metrics describes one lowering in the pipeline's terms.
type Metrics struct {
	// SrcInsns is the instrumented-stream length, LoweredInsns the
	// lowered-stream length; the difference is one slot per fused pair.
	SrcInsns, LoweredInsns int
	// FusedGuardLoad/FusedGuardStore/FusedProbeBranch count fused
	// superinstructions by kind.
	FusedGuardLoad, FusedGuardStore, FusedProbeBranch int
}

// Unit is the cacheable, position-independent lowered program: it embeds
// no heap addresses and no resolved helper pointers, so one Unit can back
// every generation of an extension (the supervisor's reload path re-links
// the cached Unit against a fresh heap).
type Unit struct {
	Code []Insn
	// PCMap maps lowered PCs back to instrumented-stream PCs.
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

// Roles of source instructions decided by the fusion pass.
const (
	roleNormal uint8 = iota
	roleFusedHead
	roleFusedTail
)

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

	// Branch-target set over the instrumented stream: fusion must not
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

	// Pass 1: fusion decisions. A pair fuses only when the second
	// instruction is the unique fall-through successor of the first: not
	// a branch target, and addressed through the register the guard just
	// sanitized.
	role := make([]uint8, n)
	for i := 0; i < n-1; i++ {
		if role[i] != roleNormal {
			continue
		}
		ins := src[i]
		if isTarget[i+1] {
			continue
		}
		next := src[i+1]
		fuse := false
		switch ins.Op {
		case insn.OpGuard:
			switch {
			case next.Op.Class() == insn.ClassLDX && next.Src == ins.Dst:
				fuse = true
			case next.Op.Class() == insn.ClassSTX && next.Op.Mode() != insn.ModeATOMIC && next.Dst == ins.Dst:
				fuse = true
			case next.Op.Class() == insn.ClassST && next.Dst == ins.Dst:
				fuse = true
			}
		case insn.OpGuardRd:
			fuse = next.Op.Class() == insn.ClassLDX && next.Src == ins.Dst
		case insn.OpProbe:
			fuse = next.IsJump()
		}
		if fuse {
			role[i], role[i+1] = roleFusedHead, roleFusedTail
		}
	}

	// Pass 2: emit. Branch targets temporarily hold instrumented-stream
	// indices; pass 3 rewrites them through srcToLow.
	u := &Unit{Metrics: Metrics{SrcInsns: n}}
	srcToLow := make([]int32, n+1)
	for i := 0; i < n; i++ {
		srcToLow[i] = int32(len(u.Code))
		if role[i] == roleFusedTail {
			continue // emitted with its head
		}
		ins := src[i]
		var li Insn
		var err error
		if role[i] == roleFusedHead {
			li, err = fusePair(ins, src[i+1], i, &u.Metrics)
		} else {
			li, err = lowerOne(ins, i, u)
		}
		if err != nil {
			return nil, err
		}
		u.Code = append(u.Code, li)
		u.PCMap = append(u.PCMap, li.OrigPC)
	}
	srcToLow[n] = int32(len(u.Code))

	// Pass 3: absolutize branch targets.
	for j := range u.Code {
		switch u.Code[j].Op {
		case OpJa, OpJcc64Imm, OpJcc64Reg, OpJcc32Imm, OpJcc32Reg, OpProbeJa, OpProbeJcc:
			u.Code[j].Target = srcToLow[u.Code[j].Target]
		}
	}
	u.Metrics.LoweredInsns = len(u.Code)
	return u, nil
}

// fusePair lowers a (head, tail) superinstruction at instrumented index i.
func fusePair(head, tail insn.Instruction, i int, m *Metrics) (Insn, error) {
	switch head.Op {
	case insn.OpGuard, insn.OpGuardRd:
		// Faults of the fused access are attributed to the access
		// instruction, exactly as on the reference interpreter.
		switch tail.Op.Class() {
		case insn.ClassLDX:
			op := OpGuardLoad
			if head.Op == insn.OpGuardRd {
				op = OpGuardRdLoad
			}
			m.FusedGuardLoad++
			return Insn{
				Op: op, Dst: uint8(tail.Dst), Src: uint8(tail.Src),
				Size: uint8(tail.Op.SizeBytes()), OrigPC: int32(i + 1),
				Imm: uint64(int64(tail.Off)),
			}, nil
		case insn.ClassSTX:
			m.FusedGuardStore++
			return Insn{
				Op: OpGuardStoreReg, Dst: uint8(tail.Dst), Src: uint8(tail.Src),
				Size: uint8(tail.Op.SizeBytes()), OrigPC: int32(i + 1),
				Imm: uint64(int64(tail.Off)),
			}, nil
		case insn.ClassST:
			m.FusedGuardStore++
			return Insn{
				Op: OpGuardStoreImm, Dst: uint8(tail.Dst),
				Size: uint8(tail.Op.SizeBytes()), OrigPC: int32(i + 1),
				Off: int32(tail.Off), Imm: uint64(int64(tail.Imm)),
			}, nil
		}
	case insn.OpProbe:
		// Aborts at the probe report the probe's PC; the branch half
		// only retires after the probe passes.
		m.FusedProbeBranch++
		target := i + 2 + int(tail.Off)
		if tail.Op.Class() == insn.ClassJMP && tail.Op.JmpOp() == insn.JmpA {
			return Insn{Op: OpProbeJa, OrigPC: int32(i), Off: head.Imm, Target: int32(target)}, nil
		}
		li := Insn{
			Op: OpProbeJcc, Sub: tail.Op.JmpOp(), OrigPC: int32(i),
			Off: head.Imm, Target: int32(target),
			Dst: uint8(tail.Dst), Src: uint8(tail.Src),
		}
		if tail.Op.Class() == insn.ClassJMP32 {
			li.Size |= Form32
		}
		if tail.Op.UsesImm() {
			li.Size |= FormImm
			if li.Size&Form32 != 0 {
				li.Imm = uint64(uint32(tail.Imm))
			} else {
				li.Imm = uint64(int64(tail.Imm))
			}
		}
		return li, nil
	}
	return Insn{}, fmt.Errorf("compile: insn %d: unfusable pair %#02x/%#02x", i, uint8(head.Op), uint8(tail.Op))
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
	case insn.ClassALU64:
		return lowerALU(li, ins, true)
	case insn.ClassALU:
		return lowerALU(li, ins, false)

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
		// The interpreter evaluates every JMP32 sub-op through the
		// generic predicate; the JA/CALL/EXIT bit patterns are never
		// taken there, so they keep a valid dummy fall-through target.
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
