// Package listing1 is the paper's Listing 1: a KFlex extension at the XDP
// hook implementing a key-value store backed by a linked list of heap
// nodes, protected by a KFlex spin lock, that serves update and delete
// requests — releasing a looked-up socket reference on every path. The
// kvstore example, the end-to-end test and the pipeline golden all load
// this one program.
package listing1

import (
	"encoding/binary"
	"unsafe"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/netsim"
)

// Packet layout: op u8 @0, key u32 @1, value u32 @5 (9 bytes).
const (
	OpUpdate = 0
	OpDelete = 1
)

// Elem is Listing 1's struct elem, a list node in the extension heap.
type Elem struct{ Key, Value, Next, Prev uint64 }

// Globals is the extension's globals area: the list head and the spin lock.
type Globals struct{ Head, Lock uint64 }

// The heap offsets the program and user space build nodes by: Elem's fields
// within a node, the globals from the heap base.
const (
	NodeKey  = int16(unsafe.Offsetof(Elem{}.Key))
	NodeVal  = int16(unsafe.Offsetof(Elem{}.Value))
	NodeNext = int16(unsafe.Offsetof(Elem{}.Next))
	NodePrev = int16(unsafe.Offsetof(Elem{}.Prev))
	NodeSize = int64(unsafe.Sizeof(Elem{}))

	GlobHead = kflex.GlobalsOff + int16(unsafe.Offsetof(Globals{}.Head))
	GlobLock = kflex.GlobalsOff + int16(unsafe.Offsetof(Globals{}.Lock))
)

// Program builds Listing 1. The flow mirrors the paper line by line:
// parse the packet, take the lock, walk the list, look up the UDP socket
// for existing connections, update or delete, release, unlock.
func Program() []insn.Instruction {
	b := asm.New()
	b.Mov(insn.R9, insn.R1) // ctx
	b.Call(kflex.HelperKflexHeapBase)
	b.Mov(insn.R8, insn.R0) // heap base

	// if (!check_ipv4_udp(ctx)) return XDP_DROP;  -- length check here.
	b.Load(insn.R2, insn.R9, 0, 4) // ctx->data_len
	b.JmpImm(insn.JmpLt, insn.R2, 9, "drop")

	// Parse op/key/value from the packet into the stack (the packet
	// helpers play the role of Listing 1's get_key/get_value).
	b.Mov(insn.R1, insn.R9)
	b.MovImm(insn.R2, 0)
	b.Mov(insn.R3, insn.R10)
	b.Add(insn.R3, -16)
	b.MovImm(insn.R4, 9)
	b.Call(kflex.HelperPktLoadBytes)
	b.JmpImm(insn.JmpNe, insn.R0, 0, "drop")
	b.Load(insn.R7, insn.R10, -15, 4) // key (u32 at packet offset 1)

	// init_sock_tuple(ctx, &tup): zero 12 bytes at fp-32.
	b.StoreImm(insn.R10, -32, 0, 8)
	b.StoreImm(insn.R10, -24, 0, 4)

	// kflex_spin_lock(&lock);
	b.Mov(insn.R1, insn.R8)
	b.Add(insn.R1, int32(GlobLock))
	b.Call(kflex.HelperKflexSpinLock)

	// struct elem *e = head; while (e != NULL) { ... }
	b.Load(insn.R6, insn.R8, GlobHead, 8)
	b.Label("loop")
	b.JmpImm(insn.JmpEq, insn.R6, 0, "miss")
	b.Load(insn.R0, insn.R6, NodeKey, 8)
	b.JmpReg(insn.JmpEq, insn.R0, insn.R7, "found")
	b.Load(insn.R6, insn.R6, NodeNext, 8) // e = e->next
	b.Ja("loop")

	// Key present: only handle packets for existing UDP sockets
	// (Listing 1 line 33: sk = bpf_sk_lookup_udp(...)).
	b.Label("found")
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -32)
	b.MovImm(insn.R3, 12)
	b.MovImm(insn.R4, 0)
	b.MovImm(insn.R5, 0)
	b.Call(kflex.HelperSkLookup)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "miss") // if (!sk) break;
	b.Store(insn.R10, -40, insn.R0, 8)       // keep sk for release

	// switch (get_request_type(ctx)): op at packet byte 0 -> stack -16.
	b.Load(insn.R1, insn.R10, -16, 1)
	b.JmpImm(insn.JmpEq, insn.R1, OpDelete, "delete")

	// case 0: e->value = get_value(ctx);
	b.Load(insn.R2, insn.R10, -11, 4) // value (u32 at packet offset 5)
	b.Store(insn.R6, NodeVal, insn.R2, 8)
	b.Ja("release")

	// case 1: list_delete(head, e); kflex_free(e);
	b.Label("delete")
	b.Load(insn.R3, insn.R6, NodeNext, 8)
	b.Load(insn.R4, insn.R6, NodePrev, 8)
	b.JmpImm(insn.JmpEq, insn.R4, 0, "del-head")
	b.Store(insn.R4, NodeNext, insn.R3, 8)
	b.Ja("del-fix")
	b.Label("del-head")
	b.Store(insn.R8, GlobHead, insn.R3, 8)
	b.Label("del-fix")
	b.JmpImm(insn.JmpEq, insn.R3, 0, "del-free")
	b.Store(insn.R3, NodePrev, insn.R4, 8)
	b.Label("del-free")
	b.Mov(insn.R1, insn.R6)
	b.Call(kflex.HelperKflexFree)

	// bpf_sk_release(sk);
	b.Label("release")
	b.Load(insn.R1, insn.R10, -40, 8)
	b.Call(kflex.HelperSkRelease)

	// kflex_spin_unlock(&lock); return XDP_DROP;
	b.Label("miss")
	b.Mov(insn.R1, insn.R8)
	b.Add(insn.R1, int32(GlobLock))
	b.Call(kflex.HelperKflexSpinUnlock)
	b.Ret(kflex.XDPDrop)
	b.Label("drop")
	b.Ret(kflex.XDPDrop)
	return b.MustAssemble()
}

// Packet builds one request; sock is the UDP socket the extension's lookup
// finds for it (nil: none).
func Packet(op byte, key, value uint32, sock *kflex.KernelObject) *netsim.Packet {
	data := make([]byte, 9)
	data[0] = op
	binary.LittleEndian.PutUint32(data[1:], key)
	binary.LittleEndian.PutUint32(data[5:], value)
	return &netsim.Packet{Data: data, Sock: sock}
}
