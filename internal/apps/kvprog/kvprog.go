// Package kvprog builds the generic KFlex key-value extension program both
// offloaded servers share: Memcached at the XDP hook (§5.1) and Redis's
// GET/SET path at sk_skb. The program parses the request through an
// app-specific helper, operates on a chained hash table whose bucket array
// and nodes live in the extension heap (allocated on demand with
// kflex_malloc), and replies through the app's reply helper. Two control
// events, never a packet, take the other branch: init allocates a bucket
// array sized for the keys about to be loaded, and bulk inserts a batch of
// node images in one probed loop.
//
// The table grows, which an eBPF map cannot: its geometry is heap data in
// the globals, not a constant. A SET miss that takes the load factor past 1
// allocates a 2× array, and each later SET miss moves StepBuckets buckets
// of the old one into it; a lookup that misses in the new array walks the
// old bucket while the rehash is in flight. Every store a doubling makes
// leaves each key reachable, so a cancellation anywhere loses none
// (DESIGN §4.6).
package kvprog

import (
	"encoding/binary"
	"slices"
	"unsafe"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// Geometry shared by the offloaded servers.
const (
	// KeySize and ValueSize are the request key/value byte sizes.
	KeySize   = 32
	ValueSize = 64
	// MinBuckets is the smallest bucket array: init sizes the table to the
	// least power of two that holds its bulk load at load factor 1, and
	// never below this.
	MinBuckets = 1 << 10
	// StepBuckets is how many old buckets a SET miss moves while a
	// doubling is in flight.
	StepBuckets = 4
)

// node is one hash-table entry in the extension heap.
type node struct {
	Tag   uint64 // the key's 32-bit hash: the chain walk's first compare
	Key   [KeySize / 8]uint64
	Len   uint64 // value length
	Next  uint64
	Value [ValueSize / 8]uint64
}

// globals is the program's globals area: the table's geometry and the
// state of a doubling in flight.
type globals struct {
	Table uint64 // the bucket array's offset from the heap base
	Lock  uint64 // the shared spin lock (co-design)
	Mask  uint64 // the bucket count less one
	// Room is the entry count's complement, buckets − entries, kept signed
	// so that the SET-miss path tests and updates one word: a miss with
	// Room > 0 links its node, any other takes the slow path. It stays ≤ 0
	// while a doubling is in flight, so every SET miss then moves buckets.
	Room uint64
	// Old is the offset of the array a doubling moves from (0: none), and
	// OldMask its mask; Cursor is the next old bucket to move.
	Old, OldMask, Cursor uint64
	// Redo is the node a move has claimed and not yet linked into its new
	// bucket (0: none); the next step finishes it, and a lookup walks it.
	Redo uint64
}

// Heap offsets: node fields within a node, globals from the heap base.
const (
	NodeTag  = int16(unsafe.Offsetof(node{}.Tag))
	NodeKey  = int16(unsafe.Offsetof(node{}.Key))
	NodeLen  = int16(unsafe.Offsetof(node{}.Len))
	NodeNext = int16(unsafe.Offsetof(node{}.Next))
	NodeVal  = int16(unsafe.Offsetof(node{}.Value))
	NodeSize = int64(unsafe.Sizeof(node{}))

	GlobTable   = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Table))
	GlobLock    = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Lock))
	GlobMask    = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Mask))
	GlobRoom    = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Room))
	GlobOld     = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Old))
	GlobOldMask = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.OldMask))
	GlobCursor  = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Cursor))
	GlobRedo    = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Redo))
)

// Parse-helper return encoding: op | valLen<<8, OpInit | keys<<8 or
// OpBulk | pairs<<8. The
// control ops (OpInit and above) follow the request ops, so one compare
// sends a request down the data path.
const (
	OpNone = 0
	OpGet  = 1
	OpSet  = 2
	OpInit = 3
	OpBulk = 4
)

// ImageSize is the byte size of one node image: the node's key and length
// words, then its value words, as the bulk fill helper writes them.
const ImageSize = KeySize + 8 + ValueSize

// AppendImage appends the node image of the pair (key, value) to dst: key,
// little-endian length, value and zero padding. key must be KeySize bytes
// and value at most ValueSize.
func AppendImage(dst, key, value []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(append(dst, key...), uint64(len(value)))
	return append(append(dst, value...), zeroValue[len(value):]...)
}

// WriteImage is the body of a bulk fill helper: it writes the ImageSize-byte
// img into the node at addr, key and length first, then the value (the
// node's Next word sits between them and is the program's to link).
func WriteImage(hc *kernel.HelperCtx, addr uint64, img []byte) error {
	split := NodeNext - NodeKey
	if err := hc.Write(addr+uint64(NodeKey), img[:split]); err != nil {
		return err
	}
	return hc.Write(addr+uint64(NodeVal), img[split:ImageSize])
}

// zeroValue pads a parsed value to ValueSize; it is only ever read.
var zeroValue [ValueSize]byte

// WriteValue is the value half of a parse helper: it fills the program's
// ValueSize-byte value buffer at addr with value (cut to ValueSize) and
// zero padding, without allocating.
func WriteValue(hc *kernel.HelperCtx, addr uint64, value []byte) error {
	n := min(len(value), ValueSize)
	if err := hc.Write(addr, value[:n]); err != nil {
		return err
	}
	return hc.Write(addr+uint64(n), zeroValue[n:])
}

// AppendValue is the value half of a reply helper: it appends the n-byte
// value at addr to reply, reading it in place. n is a scalar the extension
// controls (the program loads it from a heap word a shared-heap user thread
// can write), so it is clamped to ValueSize as the uint64 it is — converted
// first, a value with the top bit set is a negative int that passes an
// upper clamp.
func AppendValue(hc *kernel.HelperCtx, reply []byte, addr, n uint64) ([]byte, error) {
	end := len(reply) + int(min(n, ValueSize))
	out := slices.Grow(reply, end-len(reply))[:end]
	return out, hc.Read(out[len(reply):], addr)
}

// Options parameterize the program for its host application.
type Options struct {
	// ParseHelper decodes the request into the key/value stack buffers
	// and returns op | valLen<<8; a control event returns OpInit | keys<<8
	// (the keys the bulk events after it will load), or OpBulk | pairs<<8.
	ParseHelper int32
	// ReplyHelper builds the response from (addr, len); addr 0 encodes
	// miss/stored.
	ReplyHelper int32
	// FillHelper writes pair i of the bulk event's batch into the node at
	// addr (ctx, addr, i), as WriteImage does.
	FillHelper int32
	// RetServed / RetPass / RetErr are the hook return codes for
	// handled, not-ours, and failed requests.
	RetServed, RetPass, RetErr int32
	// WithLock wraps table operations in the shared spin lock (§5.3).
	WithLock bool
}

// Stack frame.
const (
	fKey  = -32
	fVal  = -96
	fVLen = -104
	fOp   = -112 // WithLock: the op across the lock call
	fIdx  = -128 // bulk: the next pair's index (the batch's n is at fVLen)
)

// Build assembles the program.
func Build(o Options) []insn.Instruction {
	b := asm.New()
	b.Mov(insn.R9, insn.R1)
	b.Call(kernel.HelperKflexHeapBase)
	b.Mov(insn.R8, insn.R0)

	// Parse into stack buffers. R4 keeps the op for every dispatch: no
	// helper is called between the parse and the last of them, but for
	// the lock, around which the WithLock program spills it.
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, fKey)
	b.Mov(insn.R3, insn.R10)
	b.Add(insn.R3, fVal)
	b.Call(o.ParseHelper)
	b.Mov(insn.R4, insn.R0)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, 0xff))
	b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, 8))
	b.Store(insn.R10, fVLen, insn.R0, 8)
	b.JmpImm(insn.JmpGe, insn.R4, OpInit, "control")
	b.JmpImm(insn.JmpEq, insn.R4, OpNone, "pass")

	// lock calls a spin-lock helper on the shared lock when the program is
	// built WithLock, and emits nothing otherwise.
	lock := func(helper int32) {
		if o.WithLock {
			b.Mov(insn.R1, insn.R8)
			b.Add(insn.R1, int32(GlobLock))
			b.Call(helper)
		}
	}
	if o.WithLock {
		b.Store(insn.R10, fOp, insn.R4, 8)
		lock(kernel.HelperKflexSpinLock)
		b.Load(insn.R4, insn.R10, fOp, 8)
	}

	// hash leaves the key's hash in R7 (callee-saved, so it survives
	// kflex_malloc), reading the four key words at base+off: the four words
	// folded by multiply-xor, then the high bits folded down (keys differ at
	// their ends, which sit in the top bytes of the last word). bucket
	// leaves the hash's bucket pointer in R5: heap + Table + (hash & Mask)*8.
	// Both take a scratch register; the request path gives them R6, which
	// the chain head overwrites, so the walk starts with R0 holding a key
	// word as unknown as the loop leaves it and the verifier's second pass
	// over the walk falls within its first.
	hash := func(base insn.Reg, off int16, tmp insn.Reg) {
		b.Load(insn.R7, base, off, 8)
		for i := int16(1); i < KeySize/8; i++ {
			b.I(insn.LoadImm(insn.R0, 0x9E3779B97F4A7C15))
			b.I(insn.Alu64Reg(insn.AluMul, insn.R7, insn.R0))
			b.Load(insn.R0, base, off+8*i, 8)
			b.I(insn.Alu64Reg(insn.AluXor, insn.R7, insn.R0))
		}
		b.Mov(tmp, insn.R7)
		b.I(insn.Alu64Imm(insn.AluRsh, tmp, 33))
		b.I(insn.Alu64Reg(insn.AluXor, insn.R7, tmp))
		b.I(insn.LoadImm(tmp, 0x9E3779B97F4A7C15))
		b.I(insn.Alu64Reg(insn.AluMul, insn.R7, tmp))
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R7, 32))
	}
	bucket := func(tmp insn.Reg) {
		b.Load(insn.R5, insn.R8, GlobTable, 8)
		b.Load(tmp, insn.R8, GlobMask, 8)
		b.I(insn.Alu64Reg(insn.AluAnd, tmp, insn.R7))
		b.I(insn.Alu64Imm(insn.AluLsh, tmp, 3))
		b.AddReg(insn.R5, tmp)
		b.AddReg(insn.R5, insn.R8)
	}
	// walk walks the chain whose head is in R6 to the node holding the
	// key, and on to miss at its end; with chain false it tests the one
	// node in R6. A node whose tag differs is passed on one compare; a tag
	// match still compares all four key words, so the tag only filters.
	walk := func(miss string, chain bool) {
		label := b.Scope()
		top, next := label("walk"), label("next")
		if !chain {
			next = miss
		}
		b.Label(top)
		b.JmpImm(insn.JmpEq, insn.R6, 0, miss)
		b.Load(insn.R0, insn.R6, NodeTag, 8)
		b.JmpReg(insn.JmpNe, insn.R0, insn.R7, next)
		for i := range int16(KeySize / 8) {
			b.Load(insn.R0, insn.R6, NodeKey+8*i, 8)
			b.Load(insn.R1, insn.R10, fKey+8*i, 8)
			b.JmpReg(insn.JmpNe, insn.R0, insn.R1, next)
		}
		b.Ja("walk-hit")
		if chain {
			b.Label(next)
			b.Load(insn.R6, insn.R6, NodeNext, 8)
			b.Ja(top)
		}
	}
	// link pushes node at the head of the bucket that slot points to.
	link := func(node, slot insn.Reg) {
		b.Load(insn.R1, slot, 0, 8)
		b.Store(node, NodeNext, insn.R1, 8) // n->next = head
		b.Store(slot, 0, node, 8)           // bucket = n
	}

	hash(insn.R10, fKey, insn.R6)
	bucket(insn.R6)
	b.Load(insn.R6, insn.R5, 0, 8) // chain head (manipulation guard)
	walk("walk-miss", true)

	// storeValue copies the parsed value and its length into node, through
	// tmp.
	storeValue := func(node, tmp insn.Reg) {
		b.Load(tmp, insn.R10, fVLen, 8)
		b.Store(node, NodeLen, tmp, 8)
		for i := range int16(ValueSize / 8) {
			b.Load(tmp, insn.R10, fVal+8*i, 8)
			b.Store(node, NodeVal+8*i, tmp, 8)
		}
	}
	// replyEmpty replies through addr 0: a miss, or stored.
	replyEmpty := func() {
		b.Mov(insn.R1, insn.R9)
		b.MovImm(insn.R2, 0)
		b.MovImm(insn.R3, 0)
		b.Call(o.ReplyHelper)
		b.Ja("out")
	}

	// SET miss: allocate and insert a node (what eBPF cannot do). Room > 0
	// means no doubling is in flight and the table takes one more entry.
	b.Label("set-miss")
	b.Load(insn.R0, insn.R8, GlobRoom, 8)
	b.JmpImm(insn.JmpSle, insn.R0, 0, "set-slow")
	b.Label("room") // R0 = Room, R5 = the key's bucket in the live array
	b.Add(insn.R0, -1)
	b.Store(insn.R8, GlobRoom, insn.R0, 8)
	b.Mov(insn.R6, insn.R5) // the bucket survives the call in R6; the node stays in R0
	b.MovImm(insn.R1, NodeSize)
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "oom")
	b.Store(insn.R0, NodeTag, insn.R7, 8)
	for i := range int16(KeySize / 8) {
		b.Load(insn.R1, insn.R10, fKey+8*i, 8)
		b.Store(insn.R0, NodeKey+8*i, insn.R1, 8)
	}
	storeValue(insn.R0, insn.R1)
	link(insn.R0, insn.R6)

	b.Label("reply-stored")
	replyEmpty()

	b.Label("walk-hit")
	b.JmpImm(insn.JmpEq, insn.R4, OpSet, "set-hit")
	// GET hit: reply straight from the heap value.
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Add(insn.R2, int32(NodeVal))
	b.Load(insn.R3, insn.R6, NodeLen, 8)
	b.Call(o.ReplyHelper)
	b.Ja("out")

	b.Label("walk-miss")
	b.JmpImm(insn.JmpEq, insn.R4, OpSet, "set-miss")
	b.Load(insn.R0, insn.R8, GlobOld, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 0, "old")
	b.Label("get-miss")
	replyEmpty() // GET miss: miss reply (still served at the hook)

	// Control events. Both run on a table no request can reach yet, so
	// neither takes the lock. Init sits ahead of the bulk loop, and the SET
	// hit and the rehash paths behind it: Kie numbers cancellation points
	// in program order, and this order keeps the bulk loop's (36 on) where
	// they were before the table could grow, as bulk-cancel names them.
	b.Label("control")
	b.JmpImm(insn.JmpNe, insn.R4, OpInit, "bulk")

	// init: size the bucket array for the n keys the bulk events will
	// load (n is in R0): the least power of two ≥ n, at least MinBuckets,
	// so a cold load never doubles. Room starts at the bucket count and
	// each bulk pair takes one.
	b.Add(insn.R0, -1)
	for s := int32(1); s < 64; s <<= 1 {
		b.Mov(insn.R1, insn.R0)
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R1, s))
		b.I(insn.Alu64Reg(insn.AluOr, insn.R0, insn.R1))
	}
	b.Add(insn.R0, 1)
	b.JmpImm(insn.JmpGe, insn.R0, MinBuckets, "sized")
	b.MovImm(insn.R0, MinBuckets)
	b.Label("sized")
	b.Mov(insn.R6, insn.R0)
	b.Mov(insn.R1, insn.R0)
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 3))
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "fail")
	b.I(insn.Alu64Reg(insn.AluSub, insn.R0, insn.R8))
	b.Store(insn.R8, GlobTable, insn.R0, 8)
	b.Store(insn.R8, GlobRoom, insn.R6, 8)
	b.Add(insn.R6, -1)
	b.Store(insn.R8, GlobMask, insn.R6, 8)
	b.Ja("done")

	// bulk: insert pairs 0..n-1 of the event's batch (n is in R0 and at
	// fVLen), each taking one entry of Room. populate feeds a fresh table
	// distinct keys, so each pair is a SET miss: no chain walk, no stack
	// copy, no reply. The loop's bound is the helper's n, so the verifier
	// probes its back edge. The loop head follows a malloc call on every
	// pass, which leaves R1–R5 unreadable there (the op in R4 among them),
	// so the second pass's registers fall within the first's and the
	// verifier walks the body once.
	b.Label("bulk")
	b.JmpImm(insn.JmpNe, insn.R4, OpBulk, "pass")
	b.JmpImm(insn.JmpEq, insn.R0, 0, "done")
	b.Load(insn.R1, insn.R8, GlobRoom, 8)
	b.I(insn.Alu64Reg(insn.AluSub, insn.R1, insn.R0))
	b.Store(insn.R8, GlobRoom, insn.R1, 8)
	b.StoreImm(insn.R10, fIdx, 0, 8)
	b.MovImm(insn.R1, NodeSize)
	b.Call(kernel.HelperKflexMalloc)
	b.Label("bulk-next") // R0 = the pair's node
	b.JmpImm(insn.JmpEq, insn.R0, 0, "fail")
	b.Mov(insn.R6, insn.R0)
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Load(insn.R3, insn.R10, fIdx, 8)
	b.Call(o.FillHelper)
	hash(insn.R6, NodeKey, insn.R0)
	b.Store(insn.R6, NodeTag, insn.R7, 8)
	bucket(insn.R0)
	link(insn.R6, insn.R5)
	b.Load(insn.R1, insn.R10, fIdx, 8)
	b.Add(insn.R1, 1)
	b.Store(insn.R10, fIdx, insn.R1, 8)
	b.Load(insn.R0, insn.R10, fVLen, 8)
	b.JmpReg(insn.JmpGe, insn.R1, insn.R0, "done")
	b.MovImm(insn.R1, NodeSize)
	b.Call(kernel.HelperKflexMalloc)
	b.Ja("bulk-next")

	b.Label("set-hit") // overwrite value in place
	storeValue(insn.R6, insn.R0)
	b.Ja("reply-stored")

	b.Label("oom")
	lock(kernel.HelperKflexSpinUnlock)
	b.Ret(o.RetErr)

	b.Label("out")
	lock(kernel.HelperKflexSpinUnlock)
	b.Ret(o.RetServed)

	// The slow SET miss: the table is full, or a doubling is in flight.
	// grow commits a doubling in order — OldMask and Cursor, Old, Table,
	// Mask — and a cancel can stop it between any two stores. Every state on
	// the way leaves each key where a lookup finds it, but only the last
	// may take a node: Old == Table means the new array was never installed
	// (roll back, grow again), and otherwise Mask may still be the old one
	// (set it).
	b.Label("set-slow")
	b.Load(insn.R0, insn.R8, GlobOld, 8)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "grow")
	b.Load(insn.R1, insn.R8, GlobTable, 8)
	b.JmpReg(insn.JmpNe, insn.R0, insn.R1, "repair")
	b.StoreImm(insn.R8, GlobOld, 0, 8)
	b.Ja("grow")
	b.Label("repair")
	b.Load(insn.R1, insn.R8, GlobOldMask, 8)
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 1))
	b.Add(insn.R1, 1)
	b.Store(insn.R8, GlobMask, insn.R1, 8)

	// A doubling is in flight (R0 = Old): the key may still sit in its old
	// bucket, or be the node a cancelled move left in Redo. The two loads
	// before the walk leave R0 and R1 as unknown as the loop leaves them, so
	// the verifier finds the loop's second pass in the state of its first.
	b.Label("old")
	b.Load(insn.R1, insn.R8, GlobOldMask, 8)
	b.I(insn.Alu64Reg(insn.AluAnd, insn.R1, insn.R7))
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 3))
	b.Mov(insn.R2, insn.R0)
	b.AddReg(insn.R2, insn.R1)
	b.AddReg(insn.R2, insn.R8)
	b.Load(insn.R6, insn.R2, 0, 8)
	b.Load(insn.R0, insn.R8, GlobOld, 8)
	b.Load(insn.R1, insn.R8, GlobOldMask, 8)
	walk("redo", true)
	b.Label("redo") // the claimed node is the one to test: its successors sit in chains
	b.Load(insn.R6, insn.R8, GlobRedo, 8)
	walk("old-miss", false)
	b.Label("old-miss")
	b.JmpImm(insn.JmpNe, insn.R4, OpSet, "get-miss")

	// step moves StepBuckets old buckets, up to the cursor R4 holds, one
	// node at a time: claim it in Redo, unlink it from its old bucket while
	// it is still the head there, link it at the head of its new bucket
	// unless it already is, clear Redo. Each store leaves the node
	// reachable from the old bucket, Redo or the new bucket, and a claimed
	// node is finished the same way by the next step, wherever a cancel
	// stopped its move. R3 keeps the node's pointer as loaded and R6 the one
	// accesses sanitize, so the compares see the stored form on a shared
	// heap too. The bound is a cursor, not a count, and clear zeroes the
	// registers the loop does not carry before each arrival at its head, so
	// the verifier finds every arrival in one state and walks the body once.
	clear := func() {
		for _, r := range []insn.Reg{insn.R0, insn.R1, insn.R2, insn.R3, insn.R6} {
			b.MovImm(r, 0)
		}
	}
	b.Load(insn.R4, insn.R8, GlobCursor, 8)
	b.Add(insn.R4, StepBuckets)
	clear()
	b.Label("step")
	b.Load(insn.R1, insn.R8, GlobCursor, 8)
	b.Load(insn.R2, insn.R8, GlobOldMask, 8)
	b.JmpReg(insn.JmpGt, insn.R1, insn.R2, "retire")
	b.Load(insn.R2, insn.R8, GlobOld, 8) // R2 = &old[Cursor]
	b.AddReg(insn.R2, insn.R8)
	b.Mov(insn.R0, insn.R1)
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, 3))
	b.AddReg(insn.R2, insn.R0)
	b.Load(insn.R3, insn.R8, GlobRedo, 8)
	b.JmpImm(insn.JmpNe, insn.R3, 0, "move")
	b.JmpReg(insn.JmpGe, insn.R1, insn.R4, "stepped")
	b.Load(insn.R3, insn.R2, 0, 8)
	b.JmpImm(insn.JmpNe, insn.R3, 0, "claim")
	b.Add(insn.R1, 1) // the bucket is empty: next
	b.Store(insn.R8, GlobCursor, insn.R1, 8)
	clear()
	b.Ja("step")
	b.Label("claim")
	b.Store(insn.R8, GlobRedo, insn.R3, 8)
	b.Label("move")
	b.Mov(insn.R6, insn.R3)
	b.Load(insn.R1, insn.R2, 0, 8)
	b.JmpReg(insn.JmpNe, insn.R1, insn.R3, "relink")
	b.Load(insn.R1, insn.R6, NodeNext, 8)
	b.Store(insn.R2, 0, insn.R1, 8)
	b.Label("relink")
	b.Load(insn.R2, insn.R8, GlobTable, 8)
	b.AddReg(insn.R2, insn.R8)
	b.Load(insn.R1, insn.R6, NodeTag, 8)
	b.Load(insn.R0, insn.R8, GlobMask, 8)
	b.I(insn.Alu64Reg(insn.AluAnd, insn.R1, insn.R0))
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 3))
	b.AddReg(insn.R2, insn.R1)
	b.Load(insn.R1, insn.R2, 0, 8)
	b.JmpReg(insn.JmpEq, insn.R1, insn.R3, "moved")
	b.Store(insn.R6, NodeNext, insn.R1, 8)
	b.Store(insn.R2, 0, insn.R3, 8)
	b.Label("moved")
	b.StoreImm(insn.R8, GlobRedo, 0, 8)
	clear()
	b.Ja("step")

	// retire: every old bucket has moved. Room gets the old array's
	// buckets back before Old is cleared — in the other order a cancel
	// would leave Room ≤ 0 with no doubling in flight, and the next SET
	// miss would double again — and the old array is freed last.
	b.Label("retire")
	b.Load(insn.R1, insn.R8, GlobOldMask, 8)
	b.Add(insn.R1, 1)
	b.Load(insn.R0, insn.R8, GlobRoom, 8)
	b.AddReg(insn.R0, insn.R1)
	b.Store(insn.R8, GlobRoom, insn.R0, 8)
	b.Load(insn.R1, insn.R8, GlobOld, 8)
	b.StoreImm(insn.R8, GlobOld, 0, 8)
	b.AddReg(insn.R1, insn.R8)
	b.Call(kernel.HelperKflexFree)
	// stepped: insert into the live array. The head load guards R5 as the
	// walk's does, so the insert's link needs no guard on either path.
	b.Label("stepped")
	bucket(insn.R6)
	b.Load(insn.R6, insn.R5, 0, 8)
	b.Load(insn.R0, insn.R8, GlobRoom, 8)
	b.Ja("room")

	// grow: the table is full and no doubling is in flight. Allocate the
	// 2× array (a huge block: fresh bump pages, zeroed) and commit it
	// (OldMask and Cursor, Old, Table, Mask); without one, insert into the
	// full table and try again at the next SET miss.
	b.Label("grow")
	b.Load(insn.R1, insn.R8, GlobMask, 8)
	b.Add(insn.R1, 1)
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 4))
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "stepped")
	b.I(insn.Alu64Reg(insn.AluSub, insn.R0, insn.R8))
	b.Load(insn.R1, insn.R8, GlobMask, 8)
	b.Store(insn.R8, GlobOldMask, insn.R1, 8)
	b.StoreImm(insn.R8, GlobCursor, 0, 8)
	b.Load(insn.R2, insn.R8, GlobTable, 8)
	b.Store(insn.R8, GlobOld, insn.R2, 8)
	b.Store(insn.R8, GlobTable, insn.R0, 8)
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 1))
	b.Add(insn.R1, 1)
	b.Store(insn.R8, GlobMask, insn.R1, 8)
	b.Ja("stepped")

	b.Label("done")
	b.Ret(o.RetServed)
	b.Label("fail")
	b.Ret(o.RetErr)
	b.Label("pass")
	b.Ret(o.RetPass)

	return b.MustAssemble()
}
