package memcached

import (
	"bytes"
	"math"
	"testing"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/durable"
	"kflex/internal/kernel"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// TestReplyLengthIsClampedUnsigned: the length mc_reply receives is a
// scalar the extension controls (the real program loads it from a heap
// word a shared-heap user thread can write). Values with the top bit set
// used to turn negative as an int, slip past the clamp and panic the host
// in make; they must clamp to ValueSize like any other oversized length.
func TestReplyLengthIsClampedUnsigned(t *testing.T) {
	for _, length := range []int64{math.MinInt64 /* 1<<63 */, -1 /* ^uint64(0) */} {
		for _, interpret := range []bool{false, true} {
			rt := kflex.NewRuntime()
			RegisterHelpers(rt)
			prog := asm.New().
				Mov(insn.R6, insn.R1).
				Call(kernel.HelperKflexHeapBase).
				Mov(insn.R1, insn.R6).
				Mov(insn.R2, insn.R0).
				MovImm(insn.R3, length).
				Call(helperMcReply).
				Ret(kernel.XDPTx).
				MustAssemble()
			ext, err := rt.Load(kflex.Spec{
				Name: "huge-reply", Insns: prog, Hook: kflex.HookXDP,
				Mode: kflex.ModeKFlex, HeapSize: 1 << 16, Interpret: interpret,
			})
			if err != nil {
				t.Fatal(err)
			}
			pkt := pktFor([]byte{'g'})
			res, err := ext.Handle(0).Run(pkt, pkt.XDPCtx(0))
			ext.Close()
			if err != nil || res.Ret != kernel.XDPTx {
				t.Fatalf("length %#x interpret=%v: ret=%d cancelled=%v err=%v",
					uint64(length), interpret, res.Ret, res.Cancelled, err)
			}
			if len(pkt.Reply) != 1+ValueSize || pkt.Reply[0] != 'V' {
				t.Fatalf("length %#x interpret=%v: reply = %q, want 'V' + %d bytes",
					uint64(length), interpret, pkt.Reply, ValueSize)
			}
		}
	}
}

// TestGetHitZeroAllocs: an offloaded GET hit on the supervised, durable
// deployment (the performance gate's mc-read path) allocates nothing —
// the helpers copy between the packet, the stack and the heap in place.
func TestGetHitZeroAllocs(t *testing.T) {
	st, _, err := durable.Open(durable.NewMemDir(nil), durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := smallCfg(workload.Mix90)
	cfg.Durable = st
	m, err := NewSupervised(cfg, 1, supervisor.Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var gets [][]byte
	for k := uint64(1); k <= 16; k++ {
		key := workload.FormatKey(k, KeySize)
		if _, _, off := m.Execute(0, EncodeSet(key, workload.FormatValue(k, ValueSize))); !off {
			t.Fatal("SET not offloaded")
		}
		gets = append(gets, EncodeGet(key))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		reply, _, off := m.Execute(0, gets[i%len(gets)])
		if !off || len(reply) != 1+ValueSize {
			t.Fatalf("GET hit: offloaded=%v reply=%q", off, reply)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("offloaded GET hit: %.0f allocs, want 0", allocs)
	}
	want := workload.FormatValue(1, ValueSize)
	if reply, _, _ := m.Execute(0, gets[0]); !bytes.Equal(reply[1:], want) {
		t.Fatalf("GET = %q, want %q", reply[1:], want)
	}
}
