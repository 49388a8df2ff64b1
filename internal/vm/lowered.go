package vm

import (
	"fmt"

	"kflex/insn"
	"kflex/internal/compile"
)

// loopLowered is the dispatch core, the equivalent of JITed code: the
// pre-decoded program produced by internal/compile is executed without
// re-decoding operands and with clusters retiring two or three
// architectural instructions per dispatch (§4.2).
//
// Semantic contract with the reference semantics (internal/refsem, which
// runs the instrumented stream one instruction at a time): for any program
// and input, Result and Stats are identical except for
// Stats.Dispatches/Stats.Fused (documented in Stats). A cluster charges
// each instruction it retires at the point a one-at-a-time run would, so a
// fault or probe abort mid-cluster sees the same counters. Abort and fault PCs
// refer to the instrumented stream via Insn.OrigPC, so cancellation-point
// attribution (object tables, chaos traces) names instrumented instructions.
func (e *Exec) loopLowered() (uint64, error) {
	p := e.prog
	lp := p.opts.Lowered
	code := lp.Code
	regs := &e.regs
	// The guard and translate constants were folded out of the dispatch
	// loop at link time; they live in locals for the whole invocation,
	// the software analogue of the JIT pinning them in registers.
	heapBase, heapMask, userBase := lp.HeapBase, lp.HeapMask, lp.UserBase
	pc := int32(0)
	for {
		if pc < 0 || int(pc) >= len(code) {
			return 0, fmt.Errorf("vm: pc %d out of program", pc)
		}
		ins := &code[pc]
		e.stats.Dispatches++

		switch ins.Op {
		// --- ALU64, immediate form: Dst = Src op Imm, where Src is Dst
		// unless a move was folded in (N = 2) ---
		case compile.OpMov64Imm:
			e.stats.Insns++
			regs[ins.Dst] = ins.Imm
			pc++
		case compile.OpAdd64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] + ins.Imm
			pc++
		case compile.OpSub64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] - ins.Imm
			pc++
		case compile.OpMul64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] * ins.Imm
			pc++
		case compile.OpDiv64Imm:
			e.stats.Insns += uint64(ins.N)
			if ins.Imm == 0 {
				regs[ins.Dst] = 0
			} else {
				regs[ins.Dst] = regs[ins.Src] / ins.Imm
			}
			pc++
		case compile.OpOr64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] | ins.Imm
			pc++
		case compile.OpAnd64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] & ins.Imm
			pc++
		case compile.OpLsh64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] << ins.Imm
			pc++
		case compile.OpRsh64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] >> ins.Imm
			pc++
		case compile.OpMod64Imm:
			e.stats.Insns += uint64(ins.N)
			if ins.Imm != 0 {
				regs[ins.Dst] = regs[ins.Src] % ins.Imm
			} else {
				regs[ins.Dst] = regs[ins.Src]
			}
			pc++
		case compile.OpXor64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] ^ ins.Imm
			pc++
		case compile.OpArsh64Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(int64(regs[ins.Src]) >> ins.Imm)
			pc++

		// --- ALU64, register form ---
		case compile.OpMov64Reg:
			e.stats.Insns++
			regs[ins.Dst] = regs[ins.Src]
			pc++
		case compile.OpAdd64Reg:
			e.stats.Insns++
			regs[ins.Dst] += regs[ins.Src]
			pc++
		case compile.OpSub64Reg:
			e.stats.Insns++
			regs[ins.Dst] -= regs[ins.Src]
			pc++
		case compile.OpMul64Reg:
			e.stats.Insns++
			regs[ins.Dst] *= regs[ins.Src]
			pc++
		case compile.OpDiv64Reg:
			e.stats.Insns++
			if s := regs[ins.Src]; s == 0 {
				regs[ins.Dst] = 0
			} else {
				regs[ins.Dst] /= s
			}
			pc++
		case compile.OpOr64Reg:
			e.stats.Insns++
			regs[ins.Dst] |= regs[ins.Src]
			pc++
		case compile.OpAnd64Reg:
			e.stats.Insns++
			regs[ins.Dst] &= regs[ins.Src]
			pc++
		case compile.OpLsh64Reg:
			e.stats.Insns++
			regs[ins.Dst] <<= regs[ins.Src] & 63
			pc++
		case compile.OpRsh64Reg:
			e.stats.Insns++
			regs[ins.Dst] >>= regs[ins.Src] & 63
			pc++
		case compile.OpMod64Reg:
			e.stats.Insns++
			if s := regs[ins.Src]; s != 0 {
				regs[ins.Dst] %= s
			}
			pc++
		case compile.OpXor64Reg:
			e.stats.Insns++
			regs[ins.Dst] ^= regs[ins.Src]
			pc++
		case compile.OpArsh64Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(int64(regs[ins.Dst]) >> (regs[ins.Src] & 63))
			pc++

		case compile.OpNeg64:
			e.stats.Insns++
			regs[ins.Dst] = -regs[ins.Dst]
			pc++

		// --- ALU32, immediate form (Imm pre-zero-extended; Src as above) ---
		case compile.OpMov32Imm:
			e.stats.Insns++
			regs[ins.Dst] = ins.Imm
			pc++
		case compile.OpAdd32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) + uint32(ins.Imm))
			pc++
		case compile.OpSub32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) - uint32(ins.Imm))
			pc++
		case compile.OpMul32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) * uint32(ins.Imm))
			pc++
		case compile.OpDiv32Imm:
			e.stats.Insns += uint64(ins.N)
			if ins.Imm == 0 {
				regs[ins.Dst] = 0
			} else {
				regs[ins.Dst] = uint64(uint32(regs[ins.Src]) / uint32(ins.Imm))
			}
			pc++
		case compile.OpOr32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) | uint32(ins.Imm))
			pc++
		case compile.OpAnd32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) & uint32(ins.Imm))
			pc++
		case compile.OpLsh32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) << uint32(ins.Imm))
			pc++
		case compile.OpRsh32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) >> uint32(ins.Imm))
			pc++
		case compile.OpMod32Imm:
			e.stats.Insns += uint64(ins.N)
			if ins.Imm != 0 {
				regs[ins.Dst] = uint64(uint32(regs[ins.Src]) % uint32(ins.Imm))
			} else {
				regs[ins.Dst] = uint64(uint32(regs[ins.Src]))
			}
			pc++
		case compile.OpXor32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]) ^ uint32(ins.Imm))
			pc++
		case compile.OpArsh32Imm:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = uint64(uint32(int32(uint32(regs[ins.Src])) >> uint32(ins.Imm)))
			pc++

		// --- ALU32, register form ---
		case compile.OpMov32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Src]))
			pc++
		case compile.OpAdd32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) + uint32(regs[ins.Src]))
			pc++
		case compile.OpSub32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) - uint32(regs[ins.Src]))
			pc++
		case compile.OpMul32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) * uint32(regs[ins.Src]))
			pc++
		case compile.OpDiv32Reg:
			e.stats.Insns++
			if s := uint32(regs[ins.Src]); s == 0 {
				regs[ins.Dst] = 0
			} else {
				regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) / s)
			}
			pc++
		case compile.OpOr32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) | uint32(regs[ins.Src]))
			pc++
		case compile.OpAnd32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) & uint32(regs[ins.Src]))
			pc++
		case compile.OpLsh32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) << (uint32(regs[ins.Src]) & 31))
			pc++
		case compile.OpRsh32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) >> (uint32(regs[ins.Src]) & 31))
			pc++
		case compile.OpMod32Reg:
			e.stats.Insns++
			if s := uint32(regs[ins.Src]); s != 0 {
				regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) % s)
			} else {
				regs[ins.Dst] = uint64(uint32(regs[ins.Dst]))
			}
			pc++
		case compile.OpXor32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(regs[ins.Dst]) ^ uint32(regs[ins.Src]))
			pc++
		case compile.OpArsh32Reg:
			e.stats.Insns++
			regs[ins.Dst] = uint64(uint32(int32(uint32(regs[ins.Dst])) >> (uint32(regs[ins.Src]) & 31)))
			pc++

		case compile.OpNeg32:
			e.stats.Insns++
			regs[ins.Dst] = uint64(-uint32(regs[ins.Dst]))
			pc++

		// --- Byte swaps (full-register semantics, both ALU classes) ---
		case compile.OpBswap16:
			e.stats.Insns++
			regs[ins.Dst] = bswap(regs[ins.Dst], 16)
			pc++
		case compile.OpBswap32:
			e.stats.Insns++
			regs[ins.Dst] = bswap(regs[ins.Dst], 32)
			pc++
		case compile.OpBswap64:
			e.stats.Insns++
			regs[ins.Dst] = bswap(regs[ins.Dst], 64)
			pc++

		// --- Memory ---
		case compile.OpLoad:
			e.stats.Insns++
			addr := regs[ins.Src] + ins.Imm
			v, err := e.load(addr, int(ins.Size))
			if err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			regs[ins.Dst] = v
			pc++

		case compile.OpStoreReg:
			e.stats.Insns++
			addr := regs[ins.Dst] + ins.Imm
			val := regs[ins.Src]
			if e.xlatArmed {
				val = e.xlatVal
				e.xlatArmed = false
			}
			if err := e.store(addr, int(ins.Size), val); err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			pc++

		case compile.OpStoreImm:
			e.stats.Insns++
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			if err := e.store(addr, int(ins.Size), ins.Imm); err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			pc++

		case compile.OpAtomic:
			e.stats.Insns++
			addr := regs[ins.Dst] + uint64(int64(ins.Off))
			ai := insn.Instruction{Src: insn.Reg(ins.Src), Imm: int32(uint32(ins.Imm))}
			if err := e.atomic(int(ins.OrigPC), ai, addr, int(ins.Size)); err != nil {
				return 0, err
			}
			pc++

		// --- Control ---
		case compile.OpJa:
			e.stats.Insns++
			pc = ins.Target
		case compile.OpJcc64Imm:
			e.stats.Insns++
			if jumpTaken(ins.Sub, regs[ins.Dst], ins.Imm, true) {
				pc = ins.Target
			} else {
				pc++
			}
		case compile.OpJcc64Reg:
			e.stats.Insns++
			if jumpTaken(ins.Sub, regs[ins.Dst], regs[ins.Src], true) {
				pc = ins.Target
			} else {
				pc++
			}
		case compile.OpJcc32Imm:
			e.stats.Insns++
			if jumpTaken(ins.Sub, uint64(uint32(regs[ins.Dst])), ins.Imm, false) {
				pc = ins.Target
			} else {
				pc++
			}
		case compile.OpJcc32Reg:
			e.stats.Insns++
			if jumpTaken(ins.Sub, uint64(uint32(regs[ins.Dst])), uint64(uint32(regs[ins.Src])), false) {
				pc = ins.Target
			} else {
				pc++
			}

		case compile.OpCall:
			e.stats.Insns++
			if err := e.callResolved(int(ins.OrigPC), lp.Helpers[ins.Target], ins.Imm); err != nil {
				return 0, err
			}
			pc++

		case compile.OpExit:
			e.stats.Insns++
			return regs[insn.R0], nil

		// --- Kie internal opcodes ---
		case compile.OpGuard:
			e.stats.Insns++
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			e.stats.Guards++
			pc++
		case compile.OpGuardRd:
			e.stats.Insns++
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			e.stats.Guards++
			e.stats.GuardsRead++
			pc++
		case compile.OpXlat:
			e.stats.Insns++
			e.xlatVal = (regs[ins.Dst] & heapMask) + userBase
			e.xlatArmed = true
			pc++
		case compile.OpProbe:
			e.stats.Insns++
			if abort := e.probeCheck(int(ins.OrigPC), uint64(uint32(ins.Off))); abort != nil {
				return 0, abort
			}
			pc++

		// --- Clusters ---
		case compile.OpGuardLoad, compile.OpGuardRdLoad:
			// Both architectural instructions are charged up front, as a
			// one-at-a-time run has by the time the access executes; a
			// fault is attributed to the access (OrigPC), not the guard.
			e.stats.Insns += 2
			e.stats.Guards++
			if ins.Op == compile.OpGuardRdLoad {
				e.stats.GuardsRead++
			}
			regs[ins.Src] = (regs[ins.Src] & heapMask) + heapBase
			v, err := e.load(regs[ins.Src]+ins.Imm, int(ins.Size))
			if err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			regs[ins.Dst] = v
			pc++

		case compile.OpGuardStoreReg:
			e.stats.Insns += 2
			e.stats.Guards++
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			val := regs[ins.Src]
			if e.xlatArmed {
				val = e.xlatVal
				e.xlatArmed = false
			}
			if err := e.store(regs[ins.Dst]+ins.Imm, int(ins.Size), val); err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			pc++

		case compile.OpGuardStoreImm:
			e.stats.Insns += 2
			e.stats.Guards++
			regs[ins.Dst] = (regs[ins.Dst] & heapMask) + heapBase
			if err := e.store(regs[ins.Dst]+uint64(int64(ins.Off)), int(ins.Size), ins.Imm); err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			pc++

		case compile.OpProbeJa:
			// The probe is charged and checked first (quantum expiry is
			// compared against the probe-time Insns count, as for a lone
			// probe); the branch half only retires after it passes.
			e.stats.Insns++
			if abort := e.probeCheck(int(ins.OrigPC), uint64(uint32(ins.Off))); abort != nil {
				return 0, abort
			}
			e.stats.Insns++
			pc = ins.Target

		case compile.OpProbeJcc:
			e.stats.Insns++
			if abort := e.probeCheck(int(ins.OrigPC), uint64(uint32(ins.Off))); abort != nil {
				return 0, abort
			}
			e.stats.Insns++
			if clusterTaken(ins, regs) {
				pc = ins.Target
			} else {
				pc++
			}

		case compile.OpLoadJcc:
			// Charged one instruction at a time: the guard and the load
			// before the access, the branch only once the load succeeded.
			if ins.Form&compile.FormGuard != 0 {
				e.stats.Insns++
				e.stats.Guards++
				if ins.Form&compile.FormGuardRd != 0 {
					e.stats.GuardsRead++
				}
				regs[ins.Src] = (regs[ins.Src] & heapMask) + heapBase
			}
			e.stats.Insns++
			v, err := e.load(regs[ins.Src]+uint64(int64(ins.Off)), int(ins.Size))
			if err != nil {
				return 0, e.fault(int(ins.OrigPC), err)
			}
			regs[ins.Dst] = v
			e.stats.Insns++
			if clusterTaken(ins, regs) {
				pc = ins.Target
			} else {
				pc++
			}

		case compile.OpAndLsh64:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = (regs[ins.Src] & ins.Imm) << uint64(ins.Off)
			pc++

		case compile.OpAdd64Idx:
			e.stats.Insns += uint64(ins.N)
			regs[ins.Dst] = regs[ins.Src] + ins.Imm + regs[ins.Idx]
			pc++

		default:
			return 0, fmt.Errorf("vm: lowered pc %d: unknown opcode %d", pc, uint8(ins.Op))
		}
	}
}

// clusterTaken evaluates the conditional branch that ends a cluster: Dst
// against Imm or register Idx, in the width its Form flags select.
func clusterTaken(ins *compile.Insn, regs *[insn.NumRegs]uint64) bool {
	dst, src := regs[ins.Dst], ins.Imm
	if ins.Form&compile.FormImm == 0 {
		src = regs[ins.Idx]
	}
	if ins.Form&compile.Form32 != 0 {
		return jumpTaken(ins.Sub, uint64(uint32(dst)), uint64(uint32(src)), false)
	}
	return jumpTaken(ins.Sub, dst, src, true)
}
