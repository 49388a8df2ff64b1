package redis

import (
	"math"
	"testing"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// TestReplyLengthIsClampedUnsigned: redis_reply's length argument is an
// extension-controlled scalar; a value with the top bit set used to go
// negative as an int, skip the clamp and panic the host in make. It must
// clamp to ValueSize.
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
				Call(helperRespReply).
				Ret(Served).
				MustAssemble()
			ext, err := rt.Load(kflex.Spec{
				Name: "huge-reply", Insns: prog, Hook: kflex.HookSkSkb,
				Mode: kflex.ModeKFlex, HeapSize: 1 << 16, Interpret: interpret,
			})
			if err != nil {
				t.Fatal(err)
			}
			pkt := &netsim.Packet{Data: EncodeCommand([]byte("GET"), workload.FormatKey(1, KeySize))}
			res, err := ext.Handle(0).Run(pkt, pkt.SkSkbCtx(0))
			ext.Close()
			if err != nil || res.Ret != Served {
				t.Fatalf("length %#x interpret=%v: ret=%d cancelled=%v err=%v",
					uint64(length), interpret, res.Ret, res.Cancelled, err)
			}
			if want := len("$64\r\n") + ValueSize + len("\r\n"); len(pkt.Reply) != want || string(pkt.Reply[:5]) != "$64\r\n" {
				t.Fatalf("length %#x interpret=%v: reply = %q, want a %d-byte bulk string",
					uint64(length), interpret, pkt.Reply, ValueSize)
			}
		}
	}
}

// TestGetHitZeroAllocs: an offloaded GET hit allocates nothing — the
// parse helper keeps the RESP arguments on its stack, and both helpers
// copy between the packet, the extension stack and the heap in place.
func TestGetHitZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(workload.Mix50)
	cfg.Preload = false
	k, err := NewKFlex(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var gets [][]byte
	for key := uint64(1); key <= 16; key++ {
		kb := workload.FormatKey(key, KeySize)
		if _, _, err := k.Execute(0, EncodeCommand([]byte("SET"), kb, workload.FormatValue(key, ValueSize))); err != nil {
			t.Fatal(err)
		}
		gets = append(gets, EncodeCommand([]byte("GET"), kb))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		reply, _, err := k.Execute(0, gets[i%len(gets)])
		if err != nil || len(reply) != len("$64\r\n")+ValueSize+2 {
			t.Fatalf("GET hit: reply=%q err=%v", reply, err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("offloaded GET hit: %.0f allocs, want 0", allocs)
	}
}
