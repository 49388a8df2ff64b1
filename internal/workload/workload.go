// Package workload generates the request streams of the paper's evaluation
// (§5): Zipfian key popularity with s = 0.99 over a fixed keyspace, GET:SET
// ratios of 90:10, 50:50 and 10:90, and configurable key/value sizes.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Zipf draws keys in [0, N) with P(k) ∝ 1/(k+1)^s for any s > 0, including
// the paper's s = 0.99 (the standard-library Zipf requires s > 1). It uses
// the Gray et al. generator popularized by YCSB, with the scramble applied
// so popular keys spread across the keyspace.
type Zipf struct {
	n        uint64
	theta    float64
	alpha    float64
	zetan    float64
	eta      float64
	zeta2    float64
	r        *rand.Rand
	scramble bool
}

// NewZipf creates a generator over n items with exponent theta. It sums the
// zeta series, n math.Pow calls (about 3 ms at KeySpace), so a caller
// constructs it where it draws from it.
func NewZipf(r *rand.Rand, n uint64, theta float64, scramble bool) *Zipf {
	if n == 0 {
		// Internal invariant: generators are constructed by benchmark
		// code with compile-time keyspace sizes, not external input.
		panic("workload: zipf over empty keyspace")
	}
	z := &Zipf{n: n, theta: theta, r: r, scramble: scramble}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next key.
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	var k uint64
	switch {
	case uz < 1:
		k = 0
	case uz < 1+math.Pow(0.5, z.theta):
		k = 1
	default:
		k = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if k >= z.n {
		k = z.n - 1
	}
	if z.scramble {
		return (k * 0x9E3779B97F4A7C15) % z.n
	}
	return k
}

// OpKind is a request type.
type OpKind int

// Request kinds.
const (
	OpGet OpKind = iota
	OpSet
)

// Mix is a GET:SET ratio, e.g. 90:10.
type Mix struct {
	GetPct int
}

// The paper's three workload mixes (§5.1).
var (
	Mix90 = Mix{GetPct: 90}
	Mix50 = Mix{GetPct: 50}
	Mix10 = Mix{GetPct: 10}
)

// Mixes lists them in the figures' order.
var Mixes = []Mix{Mix90, Mix50, Mix10}

// String renders "90:10".
func (m Mix) String() string { return fmt.Sprintf("%d:%d", m.GetPct, 100-m.GetPct) }

// Request is one generated operation.
type Request struct {
	Op    OpKind
	Key   uint64
	Value uint64 // payload seed for SETs
}

// Generator produces the paper's Zipfian request stream.
type Generator struct {
	zipf *Zipf
	mix  Mix
	r    *rand.Rand
}

// KeySpace is the number of distinct keys the evaluation touches.
const KeySpace = 64 << 10

// NewGenerator builds a generator with the paper's parameters: Zipfian
// s = 0.99 over KeySpace keys.
func NewGenerator(seed int64, mix Mix) *Generator {
	r := rand.New(rand.NewSource(seed))
	return &Generator{zipf: NewZipf(r, KeySpace, 0.99, true), mix: mix, r: r}
}

// Next draws the next request.
func (g *Generator) Next() Request {
	req := Request{Key: g.zipf.Next() + 1} // keys start at 1 (0 is reserved)
	if g.r.Intn(100) >= g.mix.GetPct {
		req.Op = OpSet
		req.Value = g.r.Uint64()%1_000_000 + 1
	}
	return req
}

// Sizes carries the key/value byte sizes of the experiment (§5: 32 B keys;
// 64 B values by default, 32 B when comparing against BMC).
type Sizes struct {
	Key, Value int
}

// FormatKey renders key as a fixed-width ASCII key of the given size.
func FormatKey(key uint64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = 'k'
	}
	var digits [20]byte
	s := strconv.AppendUint(digits[:0], key, 10)
	copy(b[size-len(s):], s)
	return b
}

// FormatValue renders a deterministic value payload of the given size.
func FormatValue(seed uint64, size int) []byte {
	b := make([]byte, size)
	x := seed
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = 'a' + byte(x>>58)%26
	}
	return b
}
