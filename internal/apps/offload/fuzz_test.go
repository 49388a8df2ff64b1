package offload_test

import (
	"bytes"
	"testing"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
)

// FuzzKVGrow turns its bytes into SETs and GETs on a table that starts
// empty and compares every reply with a Go map's. Each byte
// is one op, its top two bits the kind and its low six a key index: a GET or
// a SET of one of 64 hot keys, a GET of a key a fill stores, or a fill —
// SETs of the next 128 fresh keys — so nine fill bytes take the table past
// MinBuckets entries, and the doubling and its steps interleave with the
// other ops from there on. An input is cut at 64 ops, so at most 8 Ki keys
// and three doublings.
func FuzzKVGrow(f *testing.F) {
	f.Add([]byte{0x40, 0x00, 0x41})
	f.Add(bytes.Repeat([]byte{0xc0}, 9))
	f.Add(append(bytes.Repeat([]byte{0xc0, 0x45, 0x05, 0x80}, 10), 0xbf, 0x3f))
	f.Add(append(bytes.Repeat([]byte{0xc0}, 17), 0x41, 0x81, 0xc0, 0x01, 0xa0))
	c := &memcached.Codec
	rt := kflex.NewRuntime()
	c.RegisterHelpers(rt)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ext, err := rt.Load(kflex.Spec{
			Name: "fuzz-kv-grow", Insns: kvprog.Build(c.Prog), Hook: c.Hook, Mode: kflex.ModeKFlex,
			HeapSize: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ext.Close()
		h := ext.Handle(0)
		if _, err := c.RunInit(h, 0); err != nil {
			t.Fatal(err)
		}
		const hot, fill = 64, 128
		model := make(map[int]int)
		filled := 0 // fresh keys are hot+0 .. hot+filled-1
		do := func(i int, frame []byte, want []byte) {
			if _, pkt, err := run(h, c, frame); err != nil || !bytes.Equal(pkt.Reply, want) {
				t.Fatalf("op %d: reply %q err %v, want %q", i, pkt.Reply, err, want)
			}
		}
		get := func(i, k int) {
			want := []byte(c.Miss)
			if v, ok := model[k]; ok {
				want = c.AppendHit(nil, val(v))
			}
			do(i, c.AppendGet(nil, key(k)), want)
		}
		set := func(i, k int) {
			model[k] = i
			do(i, c.AppendSet(nil, key(k), val(i)), []byte(c.Stored))
		}
		for i, b := range ops {
			k := int(b & 0x3f)
			switch b >> 6 {
			case 0:
				get(i, k)
			case 1:
				set(i, k)
			case 2:
				get(i, hot+k*37)
			case 3:
				for j := 0; j < fill; j++ {
					set(i, hot+filled)
					filled++
				}
			}
		}
		for k := range model {
			get(len(ops), k)
		}
	})
}
