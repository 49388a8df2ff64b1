// Package hist provides a log-bucketed latency histogram in the style of
// HDR histograms: constant-time recording, bounded relative error per
// bucket, and quantile queries. The evaluation records per-request
// latencies with it and reports p99 (§5's tail-latency panels).
package hist

import "math/bits"

// subBucketBits controls resolution: each power-of-two range is split into
// 2^subBucketBits linear sub-buckets (~1.5% relative error at 6 bits).
const subBucketBits = 6

const (
	subBuckets = 1 << subBucketBits
	numBuckets = 64 * subBuckets
)

// H is a histogram of non-negative int64 samples (nanoseconds by
// convention). The zero value is ready to use. H is not safe for
// concurrent use.
type H struct {
	counts [numBuckets]uint64
	total  uint64
	max    int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - subBucketBits
	idx := (exp+1)*subBuckets + int(u>>uint(exp)) - subBuckets
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket i (used to report
// quantiles).
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	exp := i/subBuckets - 1
	sub := i%subBuckets + subBuckets
	return int64(sub) << uint(exp)
}

// Record adds one sample.
func (h *H) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest sample.
func (h *H) Max() int64 { return h.max }

// Quantile returns the value at quantile q in [0,1] (e.g. 0.99 for p99).
func (h *H) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			low := bucketLow(i)
			if low > h.max {
				return h.max
			}
			return low
		}
	}
	return h.max
}
