package ds

import (
	"math/rand"
	"testing"

	"kflex"
)

// BenchmarkOffloaded is the dispatch-bound path in-tree: one offloaded
// structure preloaded with 16 Ki keys drawn from a 32 Ki universe, then a
// seeded 50/40/10 lookup/update/delete mix on uniform keys, the op mix and
// sizes the ds-mix workload of benchmark/ runs. One b.N iteration is one op.
func BenchmarkOffloaded(b *testing.B) {
	const universe, preload, ops = 32 << 10, 16 << 10, 1 << 16
	type op struct{ code, key, val uint64 }
	r := rand.New(rand.NewSource(31))
	keys := r.Perm(universe)[:preload]
	mix := make([]op, ops)
	for i := range mix {
		o := op{key: uint64(r.Intn(universe)) + 1}
		switch p := r.Intn(100); {
		case p < 50:
			o.code = OpLookup
		case p < 90:
			o.code, o.val = OpUpdate, r.Uint64()
		default:
			o.code = OpDelete
		}
		mix[i] = o
	}
	for _, kind := range []Kind{KindHashMap, KindRBTree, KindSkipList} {
		b.Run(string(kind), func(b *testing.B) {
			o, err := Load(kflex.NewRuntime(), kind, false)
			if err != nil {
				b.Fatal(err)
			}
			defer o.Close()
			for _, k := range keys {
				if err := o.TryUpdate(uint64(k)+1, uint64(k)*3); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := mix[i%ops]
				if _, err := o.Op(m.code, m.key, m.val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
