// Package tnum implements tristate numbers: the abstract domain the eBPF
// verifier uses to track partial knowledge of register bits. A tristate
// number represents each bit as 0, 1, or unknown; KFlex's range analysis
// (which drives SFI guard elision, §3.2 of the paper) combines tnums with
// signed/unsigned interval bounds.
//
// The algorithms mirror the Linux kernel's kernel/bpf/tnum.c.
package tnum

import (
	"fmt"
	"math/bits"
)

// T is a tristate number. Value holds the known bits, Mask flags the unknown
// ones. The representation invariant is Value&Mask == 0: a bit cannot be
// simultaneously known-one and unknown.
type T struct {
	Value uint64
	Mask  uint64
}

// Unknown is the tnum about which nothing is known.
var Unknown = T{Value: 0, Mask: ^uint64(0)}

// Const returns the tnum representing exactly v.
func Const(v uint64) T { return T{Value: v} }

// Range returns the tightest tnum containing every value in [min, max].
func Range(min, max uint64) T {
	chi := min ^ max
	b := bits.Len64(chi)
	if b > 63 {
		return Unknown
	}
	delta := (uint64(1) << b) - 1
	return T{Value: min &^ delta, Mask: delta}
}

// IsConst reports whether t represents exactly one value.
func (t T) IsConst() bool { return t.Mask == 0 }

// IsUnknown reports whether t carries no information.
func (t T) IsUnknown() bool { return t.Mask == ^uint64(0) }

// Contains reports whether concrete value v is a member of t.
func (t T) Contains(v uint64) bool { return v&^t.Mask == t.Value }

// In reports whether every member of t is also a member of u
// (t is a refinement of u).
func (t T) In(u T) bool {
	if t.Mask&^u.Mask != 0 {
		return false
	}
	return t.Value&^u.Mask == u.Value
}

// Min returns the smallest unsigned member.
func (t T) Min() uint64 { return t.Value }

// Max returns the largest unsigned member.
func (t T) Max() uint64 { return t.Value | t.Mask }

// Lshift returns t << s.
func (t T) Lshift(s uint8) T { return T{Value: t.Value << s, Mask: t.Mask << s} }

// Rshift returns t >> s (logical).
func (t T) Rshift(s uint8) T { return T{Value: t.Value >> s, Mask: t.Mask >> s} }

// Arshift returns t >> s with sign extension over width bits (32 or 64).
func (t T) Arshift(s uint8, width int) T {
	if width == 32 {
		return T{
			Value: uint64(uint32(int32(uint32(t.Value)) >> s)),
			Mask:  uint64(uint32(int32(uint32(t.Mask)) >> s)),
		}
	}
	return T{
		Value: uint64(int64(t.Value) >> s),
		Mask:  uint64(int64(t.Mask) >> s),
	}
}

// Add returns the abstract sum of a and b.
func Add(a, b T) T {
	sm := a.Mask + b.Mask
	sv := a.Value + b.Value
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return T{Value: sv &^ mu, Mask: mu}
}

// Sub returns the abstract difference a - b.
func Sub(a, b T) T {
	dv := a.Value - b.Value
	alpha := dv + a.Mask
	beta := dv - b.Mask
	chi := alpha ^ beta
	mu := chi | a.Mask | b.Mask
	return T{Value: dv &^ mu, Mask: mu}
}

// And returns the abstract bitwise conjunction.
func And(a, b T) T {
	alpha := a.Value | a.Mask
	beta := b.Value | b.Mask
	v := a.Value & b.Value
	return T{Value: v, Mask: alpha & beta &^ v}
}

// Or returns the abstract bitwise disjunction.
func Or(a, b T) T {
	v := a.Value | b.Value
	mu := a.Mask | b.Mask
	return T{Value: v, Mask: mu &^ v}
}

// Xor returns the abstract bitwise exclusive or.
func Xor(a, b T) T {
	v := a.Value ^ b.Value
	mu := a.Mask | b.Mask
	return T{Value: v &^ mu, Mask: mu}
}

// Mul returns the abstract product, accumulating partial products per the
// kernel's long-multiplication scheme.
func Mul(a, b T) T {
	accV := a.Value * b.Value
	accM := T{}
	for a.Value != 0 || a.Mask != 0 {
		if a.Value&1 != 0 {
			accM = Add(accM, T{Value: 0, Mask: b.Mask})
		} else if a.Mask&1 != 0 {
			accM = Add(accM, T{Value: 0, Mask: b.Value | b.Mask})
		}
		a = a.Rshift(1)
		b = b.Lshift(1)
	}
	return Add(Const(accV), accM)
}

// Intersect returns the tnum carrying the union of the knowledge in a and b.
// The caller must guarantee the concrete value is a member of both (e.g.
// after a conditional branch refines a register), otherwise the result is
// meaningless.
func Intersect(a, b T) T {
	v := a.Value | b.Value
	mu := a.Mask & b.Mask
	return T{Value: v &^ mu, Mask: mu}
}

// Union returns the least upper bound: a tnum containing every member of a
// and of b. Used when joining states at control-flow merge points.
func Union(a, b T) T {
	mu := a.Mask | b.Mask | (a.Value ^ b.Value)
	return T{Value: a.Value &^ mu, Mask: mu}
}

// Cast truncates t to size bytes, discarding knowledge of higher bits.
func (t T) Cast(size int) T {
	if size >= 8 {
		return t
	}
	shift := uint(64 - size*8)
	t.Value = t.Value << shift >> shift
	t.Mask = t.Mask << shift >> shift
	return t
}

// Subreg returns the tnum describing the low 32 bits.
func (t T) Subreg() T { return t.Cast(4) }

// ClearSubreg zeroes knowledge and value of the low 32 bits.
func (t T) ClearSubreg() T { return t.Lshift(32).Rshift(32).Lshift(32) } // keep high half only

// WithSubreg replaces the low 32 bits of t with those of sub.
func (t T) WithSubreg(sub T) T {
	hi := T{Value: t.Value &^ 0xffffffff, Mask: t.Mask &^ 0xffffffff}
	lo := sub.Subreg()
	return T{Value: hi.Value | lo.Value, Mask: hi.Mask | lo.Mask}
}

// ConstSubreg reports whether the low 32 bits are fully known.
func (t T) ConstSubreg() bool { return t.Mask&0xffffffff == 0 }

// String renders the tnum as the kernel does: a constant prints as hex, a
// partially known value prints value/mask.
func (t T) String() string {
	if t.IsConst() {
		return fmt.Sprintf("%#x", t.Value)
	}
	if t.IsUnknown() {
		return "unknown"
	}
	return fmt.Sprintf("(%#x; %#x)", t.Value, t.Mask)
}

// Valid reports whether the representation invariant holds.
func (t T) Valid() bool { return t.Value&t.Mask == 0 }
