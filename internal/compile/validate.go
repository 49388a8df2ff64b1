package compile

import (
	"fmt"

	"kflex/insn"
)

// Validate is the static translation validation of a lowering (DESIGN.md
// §3.5): it checks that u is a faithful clustering of the instrumented
// stream src, without re-running Lower.
//
//   - Coverage: the clusters tile src in order. Lowered instruction j
//     retires src[PCMap[j] : PCMap[j]+N], 1 <= N <= 3, each member after
//     the first joined to the one before it; only the last member may
//     transfer control, none after the first is an atomic or a Kie opcode,
//     and the lowered opcode retires a cluster of that length.
//   - Branches: every branch target is a cluster start, and every lowered
//     branch targets the cluster its source branch targets.
//   - Guards: a guard is the first member of its cluster, and the lowered
//     instruction guards the same register with the same kind of guard —
//     alone, immediately before the cluster of its access, or fused with
//     the access. No lowered instruction guards without a source guard.
//   - Bookkeeping: OrigPC is the cluster's memory access (its first member
//     when it has none), and Metrics count both streams and the joins by
//     kind.
func Validate(src []insn.Instruction, u *Unit) error {
	n, code := len(src), u.Code
	if len(u.PCMap) != len(code) {
		return fmt.Errorf("compile: validate: %d PCMap entries for %d lowered insns", len(u.PCMap), len(code))
	}
	// lowOf maps each instrumented PC to the lowered PC of its cluster;
	// lowOf[n] is the end of the lowered stream.
	lowOf := make([]int, n+1)
	start := make([]bool, n+1)
	start[n] = true
	lowOf[n] = len(code)
	var joins Metrics
	next := 0
	for j, li := range code {
		s := int(u.PCMap[j])
		if s != next || li.N < 1 || li.N > 3 || s+int(li.N) > n {
			return fmt.Errorf("compile: validate: lowered %d: cluster [%d,+%d) does not continue coverage at %d", j, s, li.N, next)
		}
		next = s + int(li.N)
		c := src[s:next]
		start[s] = true
		orig := -1
		for k, ins := range c {
			lowOf[s+k] = j
			if k > 0 {
				jk := join(c[k-1], ins)
				if jk == joinNone {
					return fmt.Errorf("compile: validate: lowered %d: insn %d is not joined to insn %d", j, s+k, s+k-1)
				}
				*joins.counter(jk)++
			}
			if ins.Op.Class() == insn.ClassJMP || ins.Op.Class() == insn.ClassJMP32 {
				if k != len(c)-1 {
					return fmt.Errorf("compile: validate: lowered %d: control transfer at insn %d inside its cluster", j, s+k)
				}
			}
			switch ins.Op.Class() {
			case insn.ClassLDX, insn.ClassST, insn.ClassSTX:
				if orig < 0 {
					orig = s + k
				}
			}
		}
		if orig < 0 {
			orig = s
		}
		if int(li.OrigPC) != orig {
			return fmt.Errorf("compile: validate: lowered %d: OrigPC %d, want %d", j, li.OrigPC, orig)
		}
		if lo, hi := clusterLens(li); li.N < lo || li.N > hi {
			return fmt.Errorf("compile: validate: lowered %d: opcode %d retires %d to %d insns, not %d", j, li.Op, lo, hi, li.N)
		}
		head := c[0]
		wantGuard := head.Op == insn.OpGuard || head.Op == insn.OpGuardRd
		reg, rd, guards := guardOf(li)
		if guards != wantGuard || guards && (reg != uint8(head.Dst) || rd != (head.Op == insn.OpGuardRd)) {
			return fmt.Errorf("compile: validate: lowered %d: guard of insn %d not kept with its access", j, s)
		}
	}
	if next != n {
		return fmt.Errorf("compile: validate: clusters cover %d of %d insns", next, n)
	}

	for j, li := range code {
		last := int(u.PCMap[j]) + int(li.N) - 1
		ins := src[last]
		cls := ins.Op.Class()
		branch := cls == insn.ClassJMP32 || ins.IsJump()
		if branch != hasTarget(li.Op) {
			return fmt.Errorf("compile: validate: lowered %d: branch form disagrees with insn %d", j, last)
		}
		if !branch {
			continue
		}
		t := last + 1
		if ins.IsJump() {
			t += int(ins.Off)
		}
		if t < 0 || t > n || !start[t] {
			return fmt.Errorf("compile: validate: insn %d: branch target %d is not a cluster start", last, t)
		}
		if int(li.Target) != lowOf[t] {
			return fmt.Errorf("compile: validate: lowered %d: target %d, want %d (insn %d)", j, li.Target, lowOf[t], t)
		}
	}

	joins.SrcInsns, joins.LoweredInsns = n, len(code)
	if u.Metrics != joins {
		return fmt.Errorf("compile: validate: metrics %+v, clusters give %+v", u.Metrics, joins)
	}
	return nil
}

// clusterLens returns the cluster lengths a lowered opcode may retire.
func clusterLens(li Insn) (lo, hi uint8) {
	switch li.Op {
	case OpGuardLoad, OpGuardRdLoad, OpGuardStoreReg, OpGuardStoreImm, OpProbeJa, OpProbeJcc:
		return 2, 2
	case OpLoadJcc:
		if li.Form&FormGuard != 0 {
			return 3, 3
		}
		return 2, 2
	case OpAndLsh64, OpAdd64Idx:
		return 2, 3
	case OpMov64Imm, OpMov32Imm:
		return 1, 1
	}
	if li.Op >= OpAdd64Imm && li.Op <= OpArsh64Imm || li.Op >= OpAdd32Imm && li.Op <= OpArsh32Imm {
		return 1, 2 // a folded move
	}
	return 1, 1
}

// guardOf returns the register a lowered instruction guards and whether
// the guard is a read guard; ok is false when it guards nothing.
func guardOf(li Insn) (reg uint8, rd, ok bool) {
	switch li.Op {
	case OpGuard, OpGuardStoreReg, OpGuardStoreImm:
		return li.Dst, false, true
	case OpGuardRd:
		return li.Dst, true, true
	case OpGuardLoad:
		return li.Src, false, true
	case OpGuardRdLoad:
		return li.Src, true, true
	case OpLoadJcc:
		return li.Src, li.Form&FormGuardRd != 0, li.Form&FormGuard != 0
	}
	return 0, false, false
}
