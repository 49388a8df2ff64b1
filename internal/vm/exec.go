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

// jumpTaken evaluates a conditional branch of either compare width.
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

// probeCheck is the terminate-probe sequence (a standalone probe, or the
// probe half of a probe+branch cluster): count the probe, then abort if
// Cancelled. A fault plan then draws Terminate at the CP id and HeapGuard at
// TerminateWordOff, in that order: the draws a load of a terminate word
// would make. They stay so seeded fault traces keep their shape and a
// HeapGuard sweep over a loop's accesses (TestGrowCancel) still lands on
// probes. A non-nil return is the abort, attributed to the probe's
// instrumented PC.
func (e *Exec) probeCheck(pc int, cpID uint64) *ExtensionAbort {
	e.stats.Probes++
	if e.Cancelled() || e.inject != nil &&
		(e.inject.Fire(faultinject.Terminate, cpID) || e.inject.Fire(faultinject.HeapGuard, TerminateWordOff)) {
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
		// The comparison is as wide as the access, as in the heap.
		nw = old
		if old == e.regs[insn.R0]&(^uint64(0)>>(64-8*size)) {
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
