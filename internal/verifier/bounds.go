package verifier

import (
	"math"

	"kflex/insn"
	"kflex/internal/tnum"
)

// aluScalar computes the abstract result of "dst = dst <op> src" for scalar
// operands. is64 selects 64-bit semantics; 32-bit operations compute on the
// low word and zero-extend, as the ISA specifies.
func aluScalar(op uint8, is64 bool, dst, src RegState) RegState {
	if !is64 {
		dst.Tnum = dst.Tnum.Subreg()
		src.Tnum = src.Tnum.Subreg()
	}
	out := unknownScalar()
	switch op {
	case insn.AluMov:
		out.Tnum = src.Tnum
		if is64 {
			out.SMin, out.SMax = src.SMin, src.SMax
			out.UMin, out.UMax = src.UMin, src.UMax
		}
	case insn.AluAdd:
		out.Tnum = tnum.Add(dst.Tnum, src.Tnum)
		if is64 {
			if smin, ok1 := addS(dst.SMin, src.SMin); ok1 {
				if smax, ok2 := addS(dst.SMax, src.SMax); ok2 {
					out.SMin, out.SMax = smin, smax
				}
			}
			if umax, ok := addU(dst.UMax, src.UMax); ok {
				out.UMin = dst.UMin + src.UMin // cannot overflow if UMax sum didn't
				out.UMax = umax
			}
		}
	case insn.AluSub:
		out.Tnum = tnum.Sub(dst.Tnum, src.Tnum)
		if is64 {
			if smin, ok1 := subS(dst.SMin, src.SMax); ok1 {
				if smax, ok2 := subS(dst.SMax, src.SMin); ok2 {
					out.SMin, out.SMax = smin, smax
				}
			}
			if dst.UMin >= src.UMax {
				out.UMin = dst.UMin - src.UMax
				out.UMax = dst.UMax - src.UMin
			}
		}
	case insn.AluMul:
		out.Tnum = tnum.Mul(dst.Tnum, src.Tnum)
		if is64 && dst.UMax <= math.MaxUint32 && src.UMax <= math.MaxUint32 {
			out.UMin = dst.UMin * src.UMin
			out.UMax = dst.UMax * src.UMax
		}
	case insn.AluDiv:
		// eBPF division by zero yields zero, so 0 is always possible.
		out.Tnum = tnum.Unknown
		if is64 {
			out.UMin = 0
			out.UMax = dst.UMax
		}
	case insn.AluMod:
		// eBPF mod by zero leaves dst unchanged, so the divisor bound
		// only applies when the divisor is provably nonzero.
		out.Tnum = tnum.Unknown
		if is64 {
			out.UMin = 0
			switch {
			case src.UMax == 0: // always mod-by-zero
				out.UMax = dst.UMax
			case src.UMin > 0: // divisor provably nonzero
				out.UMax = min(dst.UMax, src.UMax-1)
			default:
				out.UMax = max(dst.UMax, src.UMax-1)
			}
		}
	case insn.AluAnd:
		out.Tnum = tnum.And(dst.Tnum, src.Tnum)
		if is64 {
			out.UMin = 0
			out.UMax = min(dst.UMax, src.UMax)
		}
	case insn.AluOr:
		out.Tnum = tnum.Or(dst.Tnum, src.Tnum)
		if is64 {
			out.UMin = max(dst.UMin, src.UMin)
		}
	case insn.AluXor:
		out.Tnum = tnum.Xor(dst.Tnum, src.Tnum)
	case insn.AluLsh:
		if c, ok := src.IsConst(); ok && c < 64 {
			out.Tnum = dst.Tnum.Lshift(uint8(c))
			if is64 && c < 64 && dst.UMax <= math.MaxUint64>>c {
				out.UMin = dst.UMin << c
				out.UMax = dst.UMax << c
			}
		} else {
			out.Tnum = tnum.Unknown
		}
	case insn.AluRsh:
		if c, ok := src.IsConst(); ok && c < 64 {
			out.Tnum = dst.Tnum.Rshift(uint8(c))
			if is64 {
				out.UMin = dst.UMin >> c
				out.UMax = dst.UMax >> c
			}
		} else {
			out.Tnum = tnum.Unknown
		}
	case insn.AluArsh:
		width := 64
		if !is64 {
			width = 32
		}
		if c, ok := src.IsConst(); ok && c < uint64(width) {
			out.Tnum = dst.Tnum.Arshift(uint8(c), width)
			if is64 {
				out.SMin = dst.SMin >> c
				out.SMax = dst.SMax >> c
			}
		} else {
			out.Tnum = tnum.Unknown
		}
	case insn.AluNeg:
		out.Tnum = tnum.Sub(tnum.Const(0), dst.Tnum)
		if is64 && dst.SMin != math.MinInt64 {
			out.SMin, out.SMax = -dst.SMax, -dst.SMin
		}
	case insn.AluEnd:
		// Byte swap: value becomes permuted bytes of the operand.
		out.Tnum = tnum.Unknown
	default:
		out.Tnum = tnum.Unknown
	}
	if !is64 {
		out.Tnum = out.Tnum.Cast(4)
		out.SMin, out.SMax = 0, math.MaxUint32
		out.UMin, out.UMax = 0, math.MaxUint32
	}
	out.deduceBounds()
	return out
}

func addS(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subS(a, b int64) (int64, bool) {
	s := a - b
	if (b < 0 && s < a) || (b > 0 && s > a) {
		return 0, false
	}
	return s, true
}

func addU(a, b uint64) (uint64, bool) {
	s := a + b
	if s < a {
		return 0, false
	}
	return s, true
}

// satAdd64 adds with saturation at the int64 extremes (heap delta tracking).
func satAdd64(a, b int64) int64 {
	s, ok := addS(a, b)
	if ok {
		return s
	}
	if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// invertJmp maps a comparison to its negation.
func invertJmp(op uint8) uint8 {
	switch op {
	case insn.JmpEq:
		return insn.JmpNe
	case insn.JmpNe:
		return insn.JmpEq
	case insn.JmpGt:
		return insn.JmpLe
	case insn.JmpGe:
		return insn.JmpLt
	case insn.JmpLt:
		return insn.JmpGe
	case insn.JmpLe:
		return insn.JmpGt
	case insn.JmpSgt:
		return insn.JmpSle
	case insn.JmpSge:
		return insn.JmpSlt
	case insn.JmpSlt:
		return insn.JmpSge
	case insn.JmpSle:
		return insn.JmpSgt
	}
	return op // JSET has no useful inversion for refinement
}

// refineCompare narrows scalar a (and b) given that "a <op> b" held.
// Both are mutated in place; only 64-bit comparisons refine.
func refineCompare(op uint8, a, b *RegState) {
	if a.Type != TypeScalar || b.Type != TypeScalar {
		return
	}
	switch op {
	case insn.JmpEq:
		a.UMin = max(a.UMin, b.UMin)
		a.UMax = min(a.UMax, b.UMax)
		a.SMin = max(a.SMin, b.SMin)
		a.SMax = min(a.SMax, b.SMax)
		a.Tnum = tnum.Intersect(a.Tnum, b.Tnum)
		*b = *a
	case insn.JmpNe:
		// Only a point exclusion at the interval edge is expressible.
		if v, ok := b.IsConst(); ok {
			if a.UMin == v && a.UMin < a.UMax {
				a.UMin++
			}
			if a.UMax == v && a.UMax > a.UMin {
				a.UMax--
			}
			if a.SMin == int64(v) && a.SMin < a.SMax {
				a.SMin++
			}
			if a.SMax == int64(v) && a.SMax > a.SMin {
				a.SMax--
			}
		}
	case insn.JmpGt: // a > b
		if b.UMin != math.MaxUint64 {
			a.UMin = max(a.UMin, b.UMin+1)
		}
		if a.UMax != 0 {
			b.UMax = min(b.UMax, a.UMax-1)
		}
	case insn.JmpGe: // a >= b
		a.UMin = max(a.UMin, b.UMin)
		b.UMax = min(b.UMax, a.UMax)
	case insn.JmpLt: // a < b
		if b.UMax != 0 {
			a.UMax = min(a.UMax, b.UMax-1)
		}
		if a.UMin != math.MaxUint64 {
			b.UMin = max(b.UMin, a.UMin+1)
		}
	case insn.JmpLe: // a <= b
		a.UMax = min(a.UMax, b.UMax)
		b.UMin = max(b.UMin, a.UMin)
	case insn.JmpSgt:
		if b.SMin != math.MaxInt64 {
			a.SMin = max(a.SMin, b.SMin+1)
		}
		if a.SMax != math.MinInt64 {
			b.SMax = min(b.SMax, a.SMax-1)
		}
	case insn.JmpSge:
		a.SMin = max(a.SMin, b.SMin)
		b.SMax = min(b.SMax, a.SMax)
	case insn.JmpSlt:
		if b.SMax != math.MinInt64 {
			a.SMax = min(a.SMax, b.SMax-1)
		}
		if a.SMin != math.MaxInt64 {
			b.SMin = max(b.SMin, a.SMin+1)
		}
	case insn.JmpSle:
		a.SMax = min(a.SMax, b.SMax)
		b.SMin = max(b.SMin, a.SMin)
	}
	a.deduceBounds()
	b.deduceBounds()
}
