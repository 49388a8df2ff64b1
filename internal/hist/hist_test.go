package hist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	var h H
	if h.total != 0 || h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	if h.total != 5 || h.Max() != 50 {
		t.Fatalf("total/max = %d/%d", h.total, h.Max())
	}
	if q := h.Quantile(0); q != 10 {
		t.Fatalf("p0 = %d", q)
	}
	if q := h.Quantile(1); q != 50 {
		t.Fatalf("p100 = %d", q)
	}
}

// Quantiles must track exact order statistics within the bucket resolution
// (~1.6% relative error at 6 sub-bucket bits).
func TestQuantileAccuracyQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := new(H)
		n := 1000 + r.Intn(2000)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(10_000_000))
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := vals[int(q*float64(n))]
			got := h.Quantile(q)
			if exact == 0 {
				continue
			}
			rel := float64(got-exact) / float64(exact)
			if rel < -0.05 || rel > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetAndNegative(t *testing.T) {
	var h H
	h.Record(-5) // clamped to 0
	if h.total != 1 || h.Quantile(0) != 0 || h.Max() != 0 {
		t.Fatalf("total=%d p0=%d max=%d", h.total, h.Quantile(0), h.Max())
	}
	h = H{} // the zero value is the reset state
	if h.total != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset failed")
	}
}

func TestBucketMonotonicQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%(1<<30)), int64(b%(1<<30))
		if x > y {
			x, y = y, x
		}
		return bucketOf(x) <= bucketOf(y) && bucketLow(bucketOf(x)) <= x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
