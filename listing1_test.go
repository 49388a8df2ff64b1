package kflex_test

import (
	"testing"

	"kflex"
	"kflex/insn"
	"kflex/internal/apps/listing1"
)

// TestListing1EndToEnd runs the paper's flagship example through the whole
// pipeline: eBPF-mode rejection, KFlex load, user-side seeding through the
// shared heap, update and delete with socket acquire/release, and the
// paper's wire-format compatibility (the bytecode round-trips through the
// eBPF encoding before loading).
func TestListing1EndToEnd(t *testing.T) {
	prog := listing1.Program()

	// Wire-format fidelity: encode to eBPF bytes and decode back.
	raw, err := insn.Encode(prog)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := insn.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}

	rt := kflex.NewRuntime()
	if _, err := rt.Load(kflex.Spec{
		Name: "listing1-ebpf", Insns: decoded, Hook: kflex.HookXDP, Mode: kflex.ModeEBPF,
	}); err == nil {
		t.Fatal("eBPF mode accepted Listing 1 (unbounded list walk)")
	}
	ext, err := rt.Load(kflex.Spec{
		Name: "listing1", Insns: decoded, Hook: kflex.HookXDP,
		Mode: kflex.ModeKFlex, HeapSize: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if ext.Report().Probes == 0 {
		t.Fatal("list walk has no cancellation probe")
	}

	// Seed two nodes from user space (§3.4 co-design surface).
	uv, err := ext.UserView()
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for key := uint64(1); key <= 2; key++ {
		node, err := ext.UserMalloc(32)
		if err != nil {
			t.Fatal(err)
		}
		for off, val := range map[uint64]uint64{0: key, 8: 0, 16: prev, 24: 0} {
			if err := uv.Store(node+off, 8, val); err != nil {
				t.Fatal(err)
			}
		}
		prev = node
	}
	if err := uv.Store(uv.Base()+kflex.GlobalsOff, 8, ext.Heap().TranslateToExt(prev)); err != nil {
		t.Fatal(err)
	}

	sock := kflex.NewKernelObject(nil)
	h := ext.Handle(0)

	// Update key 1 -> 42; the socket is acquired and released.
	pkt := listing1.Packet(listing1.OpUpdate, 1, 42, sock)
	res, err := h.Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != uint64(kflex.XDPDrop) || res.Cancelled != kflex.CancelNone {
		t.Fatalf("update: %+v", res)
	}
	if sock.Refs() != 1 {
		t.Fatalf("socket leaked: refs=%d", sock.Refs())
	}
	// The value is visible from user space through the shared heap.
	node, _ := uv.Load(uv.Base()+kflex.GlobalsOff, 8)
	nodeUser := ext.Heap().TranslateToUser(node)
	// Walk to key 1.
	for {
		k, _ := uv.Load(nodeUser+0, 8)
		if k == 1 {
			break
		}
		next, _ := uv.Load(nodeUser+16, 8)
		if next == 0 {
			t.Fatal("key 1 not found from user space")
		}
		nodeUser = ext.Heap().TranslateToUser(next)
	}
	if v, _ := uv.Load(nodeUser+8, 8); v != 42 {
		t.Fatalf("user space sees value %d, want 42", v)
	}

	// Delete key 2, then updating it misses (socket still balanced).
	pkt = listing1.Packet(listing1.OpDelete, 2, 0, sock)
	if _, err := h.Run(pkt, pkt.XDPCtx(0)); err != nil {
		t.Fatal(err)
	}
	frees := ext.Alloc().Stats().Frees
	if frees != 1 {
		t.Fatalf("kflex_free not called: frees=%d", frees)
	}
	pkt = listing1.Packet(listing1.OpUpdate, 2, 9, sock)
	if _, err := h.Run(pkt, pkt.XDPCtx(0)); err != nil {
		t.Fatal(err)
	}
	if sock.Refs() != 1 {
		t.Fatalf("refs=%d after miss path", sock.Refs())
	}
}
