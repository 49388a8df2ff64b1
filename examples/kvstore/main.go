// kvstore reproduces Listing 1 of the paper: a KFlex extension at the XDP
// hook implementing a key-value store backed by a linked list of heap
// nodes, protected by a KFlex spin lock, that serves update and delete
// requests — releasing a looked-up socket reference on every path.
//
// The example then demonstrates what makes this extension impossible as
// plain eBPF (the unbounded list walk and kflex_malloc), and finishes by
// loading a buggy variant that never terminates, showing extension
// cancellation restore the kernel to a quiescent state: the acquired
// socket reference is released and the packet gets the hook's default
// verdict.
//
// Run with: go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/listing1"
)

func main() {
	rt := kflex.NewRuntime()
	ext, err := rt.Load(kflex.Spec{
		Name:     "kvstore",
		Insns:    listing1.Program(),
		Hook:     kflex.HookXDP,
		Mode:     kflex.ModeKFlex,
		HeapSize: 16 << 20, // kflex_heap(...) of Listing 1, scaled down
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ext.Close()
	fmt.Println("Listing 1 loaded:", ext.Report())

	// Plain eBPF rejects this program: the while(e) walk has no provable
	// bound. Demonstrate by loading the same bytecode in eBPF mode.
	if _, err := rt.Load(kflex.Spec{
		Name: "kvstore-ebpf", Insns: listing1.Program(), Hook: kflex.HookXDP, Mode: kflex.ModeEBPF,
	}); err != nil {
		fmt.Println("as expected, eBPF mode rejects it:", err)
	}

	// Seed three keys by building list nodes from user space through the
	// shared heap — the §3.4 co-design facility: the application and the
	// extension operate on the same structure.
	uv, _ := ext.UserView()
	var prev uint64
	for key := uint32(1); key <= 3; key++ {
		nodeUser, err := ext.UserMalloc(uint64(listing1.NodeSize))
		if err != nil {
			log.Fatal(err)
		}
		must(uv.Store(nodeUser+uint64(listing1.NodeKey), 8, uint64(key)))
		must(uv.Store(nodeUser+uint64(listing1.NodeVal), 8, 0))
		must(uv.Store(nodeUser+uint64(listing1.NodeNext), 8, prev))
		must(uv.Store(nodeUser+uint64(listing1.NodePrev), 8, 0))
		prev = nodeUser
	}
	// Head is stored as an extension VA (translate-on-store is off here).
	must(uv.Store(uv.Base()+uint64(listing1.GlobHead), 8, ext.Heap().TranslateToExt(prev)))

	sock := kflex.NewKernelObject(nil)
	h := ext.Handle(0)

	// Update key 2 to value 42.
	pkt := listing1.Packet(listing1.OpUpdate, 2, 42, sock)
	res, err := h.Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update key=2: verdict=%d, socket refs=%d (released on every path)\n",
		res.Ret, sock.Refs())

	// Delete key 1 (frees the node with kflex_free).
	pkt = listing1.Packet(listing1.OpDelete, 1, 0, sock)
	if _, err := h.Run(pkt, pkt.XDPCtx(0)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delete key=1: allocator stats %+v\n", ext.Alloc().Stats())

	// Finally: a buggy variant that never terminates. The watchdog's
	// quantum makes the *terminate probe fault; cancellation releases the
	// held socket and returns the hook default (XDP_PASS for networking).
	demoCancellation(sock)
	fmt.Printf("after cancellation demo: socket refs=%d (reference released by unwinding)\n", sock.Refs())
}

// demoCancellation loads a spinning extension that acquires the socket and
// never releases it, then shows cancellation clean up.
func demoCancellation(sock *kflex.KernelObject) {
	b := asm.New()
	b.Mov(insn.R9, insn.R1)
	b.Call(kflex.HelperKflexHeapBase)
	b.Mov(insn.R8, insn.R0)
	b.StoreImm(insn.R10, -16, 0, 8)
	b.StoreImm(insn.R10, -8, 0, 4)
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -16)
	b.MovImm(insn.R3, 12)
	b.MovImm(insn.R4, 0)
	b.MovImm(insn.R5, 0)
	b.Call(kflex.HelperSkLookup)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "out")
	b.Mov(insn.R6, insn.R0)
	b.Label("spin") // while (1) touch the heap
	b.Load(insn.R2, insn.R8, 64, 8)
	b.Ja("spin")
	b.Label("out")
	b.Ret(kflex.XDPDrop)

	rt := kflex.NewRuntime()
	ext, err := rt.Load(kflex.Spec{
		Name: "runaway", Insns: b.MustAssemble(), Hook: kflex.HookXDP,
		Mode: kflex.ModeKFlex, HeapSize: 1 << 16, QuantumInsns: 50_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ext.Close()
	pkt := listing1.Packet(listing1.OpUpdate, 1, 0, sock)
	res, err := ext.Handle(0).Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("runaway extension: cancelled=%v, verdict=%d (hook default), unloaded=%v\n",
		res.Cancelled, res.Ret, ext.Unloaded())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
