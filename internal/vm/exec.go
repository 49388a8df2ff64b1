package vm

import (
	"errors"
	"fmt"
	"math/bits"

	"kflex/insn"
	"kflex/internal/faultinject"
	"kflex/internal/heap"
	"kflex/internal/kernel"
)

// loop is the dispatch core: the equivalent of JITed code. Kie's internal
// opcodes execute as single dispatch steps, mirroring their lowering to one
// or two hardware instructions in the paper's JIT (§4.2).
func (e *Exec) loop() (uint64, error) {
	p := e.prog
	prog := p.insns
	regs := &e.regs
	var heapBase, heapMask uint64
	if e.hasHeap {
		heapBase = p.opts.Heap.ExtBase()
		heapMask = p.opts.Heap.Mask()
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(prog) {
			return 0, fmt.Errorf("vm: pc %d out of program", pc)
		}
		ins := prog[pc]
		e.stats.Insns++
		op := ins.Op

		// Kie's internal opcodes (ALU64 class with reserved op bits).
		switch op {
		case insn.OpGuard:
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			e.stats.Guards++
			pc++
			continue
		case insn.OpGuardRd:
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			e.stats.Guards++
			e.stats.GuardsRead++
			pc++
			continue
		case insn.OpProbe:
			if abort := e.probeCheck(pc, uint64(uint32(ins.Imm))); abort != nil {
				return 0, abort
			}
			pc++
			continue
		case insn.OpXlat:
			e.xlatVal = (regs[ins.Dst] & heapMask) + p.opts.Heap.UserBase()
			e.xlatArmed = true
			pc++
			continue
		}

		switch op.Class() {
		case insn.ClassALU64:
			var src uint64
			if op.UsesImm() {
				src = uint64(int64(ins.Imm))
			} else {
				src = regs[ins.Src]
			}
			dst := regs[ins.Dst]
			switch op.AluOp() {
			case insn.AluAdd:
				dst += src
			case insn.AluSub:
				dst -= src
			case insn.AluMul:
				dst *= src
			case insn.AluDiv:
				if src == 0 {
					dst = 0
				} else {
					dst /= src
				}
			case insn.AluOr:
				dst |= src
			case insn.AluAnd:
				dst &= src
			case insn.AluLsh:
				dst <<= src & 63
			case insn.AluRsh:
				dst >>= src & 63
			case insn.AluNeg:
				dst = -dst
			case insn.AluMod:
				if src != 0 {
					dst %= src
				}
			case insn.AluXor:
				dst ^= src
			case insn.AluMov:
				dst = src
			case insn.AluArsh:
				dst = uint64(int64(dst) >> (src & 63))
			case insn.AluEnd:
				dst = bswap(dst, ins.Imm)
			default:
				return 0, fmt.Errorf("vm: insn %d: bad ALU64 op %#x", pc, uint8(op))
			}
			regs[ins.Dst] = dst
			pc++

		case insn.ClassALU:
			var src uint32
			if op.UsesImm() {
				src = uint32(ins.Imm)
			} else {
				src = uint32(regs[ins.Src])
			}
			dst := uint32(regs[ins.Dst])
			switch op.AluOp() {
			case insn.AluAdd:
				dst += src
			case insn.AluSub:
				dst -= src
			case insn.AluMul:
				dst *= src
			case insn.AluDiv:
				if src == 0 {
					dst = 0
				} else {
					dst /= src
				}
			case insn.AluOr:
				dst |= src
			case insn.AluAnd:
				dst &= src
			case insn.AluLsh:
				dst <<= src & 31
			case insn.AluRsh:
				dst >>= src & 31
			case insn.AluNeg:
				dst = -dst
			case insn.AluMod:
				if src != 0 {
					dst %= src
				}
			case insn.AluXor:
				dst ^= src
			case insn.AluMov:
				dst = src
			case insn.AluArsh:
				dst = uint32(int32(dst) >> (src & 31))
			case insn.AluEnd:
				regs[ins.Dst] = bswap(regs[ins.Dst], ins.Imm)
				pc++
				continue
			default:
				return 0, fmt.Errorf("vm: insn %d: bad ALU32 op %#x", pc, uint8(op))
			}
			regs[ins.Dst] = uint64(dst)
			pc++

		case insn.ClassLD:
			if !ins.IsLoadImm64() {
				return 0, fmt.Errorf("vm: insn %d: unsupported LD mode", pc)
			}
			regs[ins.Dst] = ins.Imm64
			pc++

		case insn.ClassLDX:
			addr := regs[ins.Src] + uint64(int64(ins.Off))
			v, err := e.load(addr, op.SizeBytes())
			if err != nil {
				return 0, e.fault(pc, err)
			}
			regs[ins.Dst] = v
			pc++

		case insn.ClassST:
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			if err := e.store(addr, op.SizeBytes(), uint64(int64(ins.Imm))); err != nil {
				return 0, e.fault(pc, err)
			}
			pc++

		case insn.ClassSTX:
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			size := op.SizeBytes()
			if op.Mode() == insn.ModeATOMIC {
				if err := e.atomic(pc, ins, addr, size); err != nil {
					return 0, err
				}
				pc++
				continue
			}
			val := regs[ins.Src]
			if e.xlatArmed {
				val = e.xlatVal
				e.xlatArmed = false
			}
			if err := e.store(addr, size, val); err != nil {
				return 0, e.fault(pc, err)
			}
			pc++

		case insn.ClassJMP:
			switch op.JmpOp() {
			case insn.JmpCall:
				if err := e.call(pc, ins); err != nil {
					return 0, err
				}
				pc++
			case insn.JmpExit:
				return regs[insn.R0], nil
			case insn.JmpA:
				pc += 1 + int(ins.Off)
			default:
				var src uint64
				if op.UsesImm() {
					src = uint64(int64(ins.Imm))
				} else {
					src = regs[ins.Src]
				}
				if jumpTaken(op.JmpOp(), regs[ins.Dst], src, true) {
					pc += 1 + int(ins.Off)
				} else {
					pc++
				}
			}

		case insn.ClassJMP32:
			var src uint64
			if op.UsesImm() {
				src = uint64(uint32(ins.Imm))
			} else {
				src = uint64(uint32(regs[ins.Src]))
			}
			if jumpTaken(op.JmpOp(), uint64(uint32(regs[ins.Dst])), src, false) {
				pc += 1 + int(ins.Off)
			} else {
				pc++
			}

		default:
			return 0, fmt.Errorf("vm: insn %d: unknown opcode %#02x", pc, uint8(op))
		}
	}
}

func jumpTaken(op uint8, dst, src uint64, is64 bool) bool {
	switch op {
	case insn.JmpEq:
		return dst == src
	case insn.JmpNe:
		return dst != src
	case insn.JmpGt:
		return dst > src
	case insn.JmpGe:
		return dst >= src
	case insn.JmpLt:
		return dst < src
	case insn.JmpLe:
		return dst <= src
	case insn.JmpSet:
		return dst&src != 0
	}
	if is64 {
		a, b := int64(dst), int64(src)
		switch op {
		case insn.JmpSgt:
			return a > b
		case insn.JmpSge:
			return a >= b
		case insn.JmpSlt:
			return a < b
		case insn.JmpSle:
			return a <= b
		}
		return false
	}
	a, b := int32(uint32(dst)), int32(uint32(src))
	switch op {
	case insn.JmpSgt:
		return a > b
	case insn.JmpSge:
		return a >= b
	case insn.JmpSlt:
		return a < b
	case insn.JmpSle:
		return a <= b
	}
	return false
}

func bswap(v uint64, width int32) uint64 {
	switch width {
	case 16:
		return uint64(bits.ReverseBytes16(uint16(v)))
	case 32:
		return uint64(bits.ReverseBytes32(uint32(v)))
	default:
		return bits.ReverseBytes64(v)
	}
}

// call dispatches a helper by ID: the registry lookup the lowered tier did
// once at link time, then the one call sequence both tiers share.
func (e *Exec) call(pc int, ins insn.Instruction) error {
	spec, ok := e.prog.opts.Kernel.Helpers.Lookup(ins.Imm)
	if !ok {
		return fmt.Errorf("vm: insn %d: unknown helper %d", pc, ins.Imm)
	}
	return e.callResolved(pc, spec, uint64(uint32(ins.Imm)))
}

// callResolved dispatches a helper through its resolved spec.
func (e *Exec) callResolved(pc int, spec *kernel.HelperSpec, helperID uint64) error {
	e.stats.HelperCalls++
	// Injected helper failure: the call never runs, and the invocation
	// unwinds through the same path as a heap fault.
	if e.inject != nil && e.inject.Fire(faultinject.HelperErr, helperID) {
		return &ExtensionAbort{Kind: CancelHelper, PC: pc}
	}
	args := [5]uint64{
		e.regs[insn.R1], e.regs[insn.R2], e.regs[insn.R3],
		e.regs[insn.R4], e.regs[insn.R5],
	}
	ret, err := spec.Impl(&e.hc, args)
	if err != nil {
		if errors.Is(err, kernel.ErrCancelledInLock) {
			return &ExtensionAbort{Kind: CancelLock, PC: pc}
		}
		return e.fault(pc, err)
	}
	e.regs[insn.R0] = ret
	return nil
}

// probeCheck is the terminate-probe sequence of both tiers (a standalone
// probe, or the probe half of a probe+branch cluster): count the probe, then
// observe — in order — quantum expiry, a cancel request naming this
// invocation, an injected terminate fault keyed by the CP id, and finally
// the terminate word itself, which only Program.Unload invalidates. A
// non-nil return is the abort, attributed to the probe's instrumented PC.
func (e *Exec) probeCheck(pc int, cpID uint64) *ExtensionAbort {
	p := e.prog
	e.stats.Probes++
	term := p.terminate.Load()
	quantum := p.opts.QuantumInsns
	if quantum > 0 && e.stats.Insns > quantum {
		return &ExtensionAbort{Kind: CancelTerminate, PC: pc}
	}
	if e.cancelReq.Load() == e.cur {
		return &ExtensionAbort{Kind: CancelTerminate, PC: pc}
	}
	if e.inject != nil && e.inject.Fire(faultinject.Terminate, cpID) {
		return &ExtensionAbort{Kind: CancelTerminate, PC: pc}
	}
	if _, err := e.extView.Load(term, 8); err != nil {
		return &ExtensionAbort{Kind: CancelTerminate, PC: pc}
	}
	return nil
}

// atomic executes an atomic read-modify-write. Heap addresses use the
// heap's real atomics; pinned map values are serialized by the kernel map
// implementation's own locking plus a per-exec fallback.
func (e *Exec) atomic(pc int, ins insn.Instruction, addr uint64, size int) error {
	operand := e.regs[ins.Src]
	if e.hasHeap && e.extView.Contains(addr) {
		var err error
		var old uint64
		switch ins.Imm {
		case insn.AtomicAdd, insn.AtomicAdd | insn.AtomicFetch:
			old, err = e.extView.AtomicRMW(addr, size, heap.RMWAdd, operand)
		case insn.AtomicOr, insn.AtomicOr | insn.AtomicFetch:
			old, err = e.extView.AtomicRMW(addr, size, heap.RMWOr, operand)
		case insn.AtomicAnd, insn.AtomicAnd | insn.AtomicFetch:
			old, err = e.extView.AtomicRMW(addr, size, heap.RMWAnd, operand)
		case insn.AtomicXor, insn.AtomicXor | insn.AtomicFetch:
			old, err = e.extView.AtomicRMW(addr, size, heap.RMWXor, operand)
		case insn.AtomicXchg:
			old, err = e.extView.AtomicRMW(addr, size, heap.RMWXchg, operand)
		case insn.AtomicCmpXchg:
			old, err = e.extView.AtomicCAS(addr, size, e.regs[insn.R0], operand)
			if err == nil {
				e.regs[insn.R0] = old
			}
		default:
			return fmt.Errorf("vm: insn %d: unknown atomic %#x", pc, ins.Imm)
		}
		if err != nil {
			return e.fault(pc, err)
		}
		if ins.Imm&insn.AtomicFetch != 0 && ins.Imm != insn.AtomicCmpXchg {
			e.regs[ins.Src] = old
		}
		return nil
	}
	// Non-heap (map value) atomics: read-modify-write through the plain
	// accessors.
	old, err := e.load(addr, size)
	if err != nil {
		return e.fault(pc, err)
	}
	var nw uint64
	switch ins.Imm &^ insn.AtomicFetch {
	case insn.AtomicAdd:
		nw = old + operand
	case insn.AtomicOr:
		nw = old | operand
	case insn.AtomicAnd:
		nw = old & operand
	case insn.AtomicXor:
		nw = old ^ operand
	case insn.AtomicXchg &^ insn.AtomicFetch:
		nw = operand
	case insn.AtomicCmpXchg &^ insn.AtomicFetch:
		nw = old
		if old == e.regs[insn.R0] {
			nw = operand
		}
		e.regs[insn.R0] = old
	default:
		return fmt.Errorf("vm: insn %d: unknown atomic %#x", pc, ins.Imm)
	}
	if err := e.store(addr, size, nw); err != nil {
		return e.fault(pc, err)
	}
	if ins.Imm&insn.AtomicFetch != 0 && ins.Imm != insn.AtomicCmpXchg {
		e.regs[ins.Src] = old
	}
	return nil
}
