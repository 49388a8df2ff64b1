package tnum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConst(t *testing.T) {
	c := Const(42)
	if !c.IsConst() || c.Value != 42 || !c.Contains(42) || c.Contains(43) {
		t.Fatalf("Const(42) wrong: %v", c)
	}
}

func TestRangeContainsEndpoints(t *testing.T) {
	cases := [][2]uint64{{0, 0}, {0, 1}, {3, 17}, {100, 100}, {1 << 20, 1<<20 + 4095}, {0, ^uint64(0)}}
	for _, c := range cases {
		r := Range(c[0], c[1])
		if !r.Valid() {
			t.Errorf("Range(%d,%d) invalid repr", c[0], c[1])
		}
		for _, v := range []uint64{c[0], c[1], (c[0] + c[1]) / 2} {
			if !r.Contains(v) {
				t.Errorf("Range(%d,%d) missing %d", c[0], c[1], v)
			}
		}
	}
}

func TestMinMax(t *testing.T) {
	r := Range(16, 31)
	if r.Min() != 16 || r.Max() != 31 {
		t.Fatalf("Range(16,31) min/max = %d/%d", r.Min(), r.Max())
	}
}

func TestIn(t *testing.T) {
	small := Range(16, 19)
	big := Range(0, 31)
	if !small.In(big) {
		t.Error("Range(16,19) should be in Range(0,31)")
	}
	if big.In(small) {
		t.Error("Range(0,31) should not be in Range(16,19)")
	}
	if !Const(7).In(Unknown) {
		t.Error("const should be in unknown")
	}
}

func TestCast(t *testing.T) {
	v := Const(0x1_0000_00ff)
	if got := v.Cast(4); got.Value != 0xff {
		t.Fatalf("Cast(4) = %v", got)
	}
	if got := v.Cast(8); got != v {
		t.Fatalf("Cast(8) changed value: %v", got)
	}
	if got := v.Cast(1); got.Value != 0xff {
		t.Fatalf("Cast(1) = %v", got)
	}
}

func TestSubregOps(t *testing.T) {
	v := T{Value: 0xaaaa_0000_0000_00ff, Mask: 0x0000_ffff_0000_ff00}
	if !v.Valid() {
		t.Fatal("test tnum invalid")
	}
	sub := v.Subreg()
	if sub.Value != 0xff || sub.Mask != 0xff00 {
		t.Fatalf("Subreg = %v", sub)
	}
}

func TestString(t *testing.T) {
	if Const(16).String() != "0x10" {
		t.Errorf("Const(16).String() = %q", Const(16).String())
	}
	if Unknown.String() != "unknown" {
		t.Errorf("Unknown.String() = %q", Unknown.String())
	}
	if (T{Value: 0x10, Mask: 0x1}).String() != "(0x10; 0x1)" {
		t.Errorf("partial String() = %q", T{Value: 0x10, Mask: 0x1}.String())
	}
}

// randomTnum generates a valid tnum together with one of its concrete members.
func randomTnum(r *rand.Rand) (T, uint64) {
	mask := r.Uint64()
	value := r.Uint64() &^ mask
	member := value | (r.Uint64() & mask)
	return T{Value: value, Mask: mask}, member
}

// Soundness: for every binary operator, concrete results of member values
// must be members of the abstract result.
func TestBinarySoundnessQuick(t *testing.T) {
	type binOp struct {
		name     string
		abstract func(a, b T) T
		concrete func(x, y uint64) uint64
	}
	ops := []binOp{
		{"add", Add, func(x, y uint64) uint64 { return x + y }},
		{"sub", Sub, func(x, y uint64) uint64 { return x - y }},
		{"and", And, func(x, y uint64) uint64 { return x & y }},
		{"or", Or, func(x, y uint64) uint64 { return x | y }},
		{"xor", Xor, func(x, y uint64) uint64 { return x ^ y }},
		{"mul", Mul, func(x, y uint64) uint64 { return x * y }},
	}
	for _, op := range ops {
		op := op
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, x := randomTnum(r)
			b, y := randomTnum(r)
			res := op.abstract(a, b)
			return res.Valid() && res.Contains(op.concrete(x, y))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s unsound: %v", op.name, err)
		}
	}
}

func TestShiftSoundnessQuick(t *testing.T) {
	f := func(seed int64, s uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, x := randomTnum(r)
		s %= 64
		if got := a.Lshift(s); !got.Valid() || !got.Contains(x<<s) {
			return false
		}
		if got := a.Rshift(s); !got.Valid() || !got.Contains(x>>s) {
			return false
		}
		got := a.Arshift(s, 64)
		return got.Contains(uint64(int64(x) >> s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestArshift32(t *testing.T) {
	a := Const(0x80000000)
	got := a.Arshift(4, 32)
	neg := int32(-0x7fffffff - 1)
	want := uint64(uint32(neg >> 4))
	if !got.Contains(want) {
		t.Fatalf("Arshift32: got %v, want member %#x", got, want)
	}
}

func TestRangeSoundnessQuick(t *testing.T) {
	f := func(a, b, pick uint64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		v := lo
		if hi > lo {
			v = lo + pick%(hi-lo+1)
		}
		return Range(lo, hi).Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionSoundnessQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, x := randomTnum(r)
		b, y := randomTnum(r)
		u := Union(a, b)
		return u.Valid() && u.Contains(x) && u.Contains(y) && a.In(u) && b.In(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSoundnessQuick(t *testing.T) {
	// If v is a member of both a and b, it must be a member of the
	// intersection.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, v := randomTnum(r)
		// Build b as another tnum that also contains v.
		mask := r.Uint64()
		b := T{Value: v &^ mask, Mask: mask}
		got := Intersect(a, b)
		return got.Contains(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectTightens(t *testing.T) {
	a := Range(0, 255)
	b := Const(17)
	got := Intersect(a, b)
	if !got.IsConst() || got.Value != 17 {
		t.Fatalf("Intersect(range, const) = %v", got)
	}
}

func TestCastSoundnessQuick(t *testing.T) {
	f := func(seed int64, szPick uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, x := randomTnum(r)
		size := []int{1, 2, 4, 8}[szPick%4]
		shift := uint(64 - size*8)
		truncated := x << shift >> shift
		if size == 8 {
			truncated = x
		}
		return a.Cast(size).Contains(truncated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
