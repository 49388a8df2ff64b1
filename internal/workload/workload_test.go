package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFormatKeyMatchesFmt: FormatKey renders with strconv and no fmt, and
// its keys are the bytes the fmt rendering gave — the keys every preload,
// store and golden figure is built from.
func TestFormatKeyMatchesFmt(t *testing.T) {
	const size = 32
	want := func(key uint64) []byte {
		b := bytes.Repeat([]byte{'k'}, size)
		s := fmt.Sprintf("%d", key)
		copy(b[size-len(s):], s)
		return b
	}
	keys := []uint64{math.MaxUint64}
	for k := uint64(0); k <= 70_000; k++ {
		keys = append(keys, k)
	}
	for _, k := range keys {
		if got := FormatKey(k, size); !bytes.Equal(got, want(k)) {
			t.Fatalf("FormatKey(%d) = %q, want %q", k, got, want(k))
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	z := NewZipf(r, 1000, 0.99, false)
	counts := make([]int, 1000)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// With s=0.99 over 1000 items, the hottest key takes ~12-15% of the
	// probability mass and the head dominates.
	if counts[0] < draws/20 {
		t.Fatalf("head key drew only %d of %d", counts[0], draws)
	}
	var head int
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if head < draws/4 {
		t.Fatalf("top-10 keys drew %d of %d; distribution not skewed", head, draws)
	}
	if counts[999] > counts[0] {
		t.Fatal("tail hotter than head")
	}
}

func TestZipfScrambleSpreads(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	z := NewZipf(r, 1<<16, 0.99, true)
	seen := map[uint64]bool{}
	for i := 0; i < 10_000; i++ {
		seen[z.Next()] = true
	}
	// Scrambling must spread popular ranks across the keyspace: the hot
	// keys should not cluster at the low end.
	var low int
	for k := range seen {
		if k < 100 {
			low++
		}
	}
	if low > len(seen)/10 {
		t.Fatalf("%d of %d distinct keys below 100: not scrambled", low, len(seen))
	}
}

func TestMixRatios(t *testing.T) {
	for _, mix := range Mixes {
		g := NewGenerator(7, mix)
		var sets int
		const n = 50_000
		for i := 0; i < n; i++ {
			req := g.Next()
			if req.Key == 0 || req.Key > KeySpace {
				t.Fatalf("key %d out of range", req.Key)
			}
			if req.Op == OpSet {
				sets++
				if req.Value == 0 {
					t.Fatal("SET without value seed")
				}
			}
		}
		want := float64(100-mix.GetPct) / 100
		got := float64(sets) / n
		if got < want-0.02 || got > want+0.02 {
			t.Fatalf("mix %s: SET fraction %.3f, want %.2f", mix, got, want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b := NewGenerator(42, Mix90), NewGenerator(42, Mix90)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestFormatters(t *testing.T) {
	k := FormatKey(12345, 32)
	if len(k) != 32 || string(k[27:]) != "12345" || k[0] != 'k' {
		t.Fatalf("key = %q", k)
	}
	v1, v2 := FormatValue(7, 64), FormatValue(7, 64)
	if len(v1) != 64 || string(v1) != string(v2) {
		t.Fatal("value not deterministic")
	}
	if string(FormatValue(8, 64)) == string(v1) {
		t.Fatal("different seeds collide")
	}
}

func TestMixString(t *testing.T) {
	if Mix90.String() != "90:10" || Mix10.String() != "10:90" {
		t.Fatal("mix rendering wrong")
	}
}
