// Package kvprog builds the generic KFlex key-value extension program both
// offloaded servers share: Memcached at the XDP hook (§5.1) and Redis's
// GET/SET path at sk_skb. The program parses the request through an
// app-specific helper, operates on a chained hash table whose bucket array
// and nodes live in the extension heap (allocated on demand with
// kflex_malloc), and replies through the app's reply helper. Two control
// events, never a packet, take the other branch: init allocates the bucket
// array, and bulk inserts a batch of node images in one probed loop.
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
	// Buckets is the hash-table bucket count.
	Buckets = 16 << 10
)

// node is one hash-table entry in the extension heap.
type node struct {
	Tag   uint64 // the key's 32-bit hash: the chain walk's first compare
	Key   [KeySize / 8]uint64
	Len   uint64 // value length
	Next  uint64
	Value [ValueSize / 8]uint64
}

// globals is the program's globals area.
type globals struct {
	Table uint64 // the bucket array's offset from the heap base
	Lock  uint64 // the shared spin lock (co-design)
}

// Heap offsets: node fields within a node, globals from the heap base.
const (
	NodeTag  = int16(unsafe.Offsetof(node{}.Tag))
	NodeKey  = int16(unsafe.Offsetof(node{}.Key))
	NodeLen  = int16(unsafe.Offsetof(node{}.Len))
	NodeNext = int16(unsafe.Offsetof(node{}.Next))
	NodeVal  = int16(unsafe.Offsetof(node{}.Value))
	NodeSize = int64(unsafe.Sizeof(node{}))

	GlobTable = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Table))
	GlobLock  = kflex.GlobalsOff + int16(unsafe.Offsetof(globals{}.Lock))
)

// Parse-helper return encoding: op | valLen<<8, or OpBulk | pairs<<8. The
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
	// and returns op | valLen<<8; a control event returns OpInit, or
	// OpBulk | pairs<<8.
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
	fOp   = -112
	fBkt  = -120
	fIdx  = -128 // bulk: the next pair's index (the batch's n is at fVLen)
)

// Build assembles the program.
func Build(o Options) []insn.Instruction {
	b := asm.New()
	b.Mov(insn.R9, insn.R1)
	b.Call(kernel.HelperKflexHeapBase)
	b.Mov(insn.R8, insn.R0)

	// Parse into stack buffers.
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, fKey)
	b.Mov(insn.R3, insn.R10)
	b.Add(insn.R3, fVal)
	b.Call(o.ParseHelper)
	b.Mov(insn.R1, insn.R0)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R1, 0xff))
	b.Store(insn.R10, fOp, insn.R1, 8)
	b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, 8))
	b.Store(insn.R10, fVLen, insn.R0, 8)
	b.Load(insn.R1, insn.R10, fOp, 8)
	b.JmpImm(insn.JmpGe, insn.R1, OpInit, "control")
	b.JmpImm(insn.JmpEq, insn.R1, OpNone, "pass")

	// lock calls a spin-lock helper on the shared lock when the program is
	// built WithLock, and emits nothing otherwise.
	lock := func(helper int32) {
		if o.WithLock {
			b.Mov(insn.R1, insn.R8)
			b.Add(insn.R1, int32(GlobLock))
			b.Call(helper)
		}
	}
	lock(kernel.HelperKflexSpinLock)

	// hash leaves the key's hash in R7 (callee-saved, so it survives
	// kflex_malloc), reading the four key words at base+off: the four words
	// folded by multiply-xor, then the high bits folded down (keys differ at
	// their ends, which sit in the top bytes of the last word). bucket
	// leaves the hash's bucket pointer in R5: heap + tableOff +
	// (hash & (buckets-1))*8.
	hash := func(base insn.Reg, off int16) {
		b.Load(insn.R7, base, off, 8)
		for i := int16(1); i < KeySize/8; i++ {
			b.I(insn.LoadImm(insn.R0, 0x9E3779B97F4A7C15))
			b.I(insn.Alu64Reg(insn.AluMul, insn.R7, insn.R0))
			b.Load(insn.R0, base, off+8*i, 8)
			b.I(insn.Alu64Reg(insn.AluXor, insn.R7, insn.R0))
		}
		b.Mov(insn.R0, insn.R7)
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, 33))
		b.I(insn.Alu64Reg(insn.AluXor, insn.R7, insn.R0))
		b.I(insn.LoadImm(insn.R0, 0x9E3779B97F4A7C15))
		b.I(insn.Alu64Reg(insn.AluMul, insn.R7, insn.R0))
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R7, 32))
	}
	bucket := func() {
		b.Load(insn.R5, insn.R8, GlobTable, 8)
		b.Mov(insn.R0, insn.R7)
		b.I(insn.Alu64Imm(insn.AluAnd, insn.R0, Buckets-1))
		b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, 3))
		b.AddReg(insn.R5, insn.R0)
		b.AddReg(insn.R5, insn.R8)
	}
	// link pushes the new node in R6 at the head of the bucket R5 points
	// to.
	link := func() {
		b.Load(insn.R0, insn.R5, 0, 8)
		b.Store(insn.R6, NodeNext, insn.R0, 8) // n->next = head
		b.Store(insn.R5, 0, insn.R6, 8)        // bucket = n
	}

	hash(insn.R10, fKey)
	bucket()
	b.Load(insn.R6, insn.R5, 0, 8) // chain head (manipulation guard)

	// Walk the chain. A node whose tag differs is passed on one compare; a
	// tag match still compares all four key words, so the tag only filters.
	b.Label("walk")
	b.JmpImm(insn.JmpEq, insn.R6, 0, "walk-miss")
	b.Load(insn.R0, insn.R6, NodeTag, 8)
	b.JmpReg(insn.JmpNe, insn.R0, insn.R7, "walk-next")
	for i := range int16(KeySize / 8) {
		b.Load(insn.R0, insn.R6, NodeKey+8*i, 8)
		b.Load(insn.R1, insn.R10, fKey+8*i, 8)
		b.JmpReg(insn.JmpNe, insn.R0, insn.R1, "walk-next")
	}
	b.Ja("walk-hit")
	b.Label("walk-next")
	b.Load(insn.R6, insn.R6, NodeNext, 8)
	b.Ja("walk")

	b.Label("walk-hit")
	b.Load(insn.R1, insn.R10, fOp, 8)
	b.JmpImm(insn.JmpEq, insn.R1, OpSet, "set-hit")
	// GET hit: reply straight from the heap value.
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Add(insn.R2, int32(NodeVal))
	b.Load(insn.R3, insn.R6, NodeLen, 8)
	b.Call(o.ReplyHelper)
	b.Ja("out")

	// storeValue copies the parsed value and its length into the node in R6.
	storeValue := func() {
		b.Load(insn.R0, insn.R10, fVLen, 8)
		b.Store(insn.R6, NodeLen, insn.R0, 8)
		for i := range int16(ValueSize / 8) {
			b.Load(insn.R0, insn.R10, fVal+8*i, 8)
			b.Store(insn.R6, NodeVal+8*i, insn.R0, 8)
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

	b.Label("set-hit") // overwrite value in place
	storeValue()
	b.Ja("reply-stored")

	b.Label("walk-miss")
	b.Load(insn.R1, insn.R10, fOp, 8)
	b.JmpImm(insn.JmpEq, insn.R1, OpSet, "set-miss")
	replyEmpty() // GET miss: miss reply (still served at the hook)

	b.Label("set-miss") // allocate and insert a node (what eBPF cannot do)
	b.Store(insn.R10, fBkt, insn.R5, 8)
	b.MovImm(insn.R1, NodeSize)
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "oom")
	b.Mov(insn.R6, insn.R0)
	b.Store(insn.R6, NodeTag, insn.R7, 8)
	for i := range int16(KeySize / 8) {
		b.Load(insn.R0, insn.R10, fKey+8*i, 8)
		b.Store(insn.R6, NodeKey+8*i, insn.R0, 8)
	}
	storeValue()
	b.Load(insn.R5, insn.R10, fBkt, 8)
	link()

	b.Label("reply-stored")
	replyEmpty()

	b.Label("oom")
	lock(kernel.HelperKflexSpinUnlock)
	b.Ret(o.RetErr)

	b.Label("out")
	lock(kernel.HelperKflexSpinUnlock)
	b.Ret(o.RetServed)

	// Control events. Both run on a table no request can reach yet, so
	// neither takes the lock.
	b.Label("control")
	b.JmpImm(insn.JmpEq, insn.R1, OpInit, "init")
	b.JmpImm(insn.JmpNe, insn.R1, OpBulk, "pass")

	// bulk: insert pairs 0..n-1 of the event's batch (n is in R0 and at
	// fVLen). populate feeds a fresh table distinct keys, so each pair is a
	// SET miss: no chain walk, no stack copy, no reply. The loop's bound is
	// the helper's n, so the verifier probes its back edge. The loop head is
	// the malloc call, where the second pass's registers fall within the
	// first's, so the verifier walks the body once.
	b.JmpImm(insn.JmpEq, insn.R0, 0, "done")
	b.StoreImm(insn.R10, fIdx, 0, 8)
	b.MovImm(insn.R1, NodeSize)
	b.Label("bulk-next")
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "fail")
	b.Mov(insn.R6, insn.R0)
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Load(insn.R3, insn.R10, fIdx, 8)
	b.Call(o.FillHelper)
	hash(insn.R6, NodeKey)
	b.Store(insn.R6, NodeTag, insn.R7, 8)
	bucket()
	link()
	b.Load(insn.R1, insn.R10, fIdx, 8)
	b.Add(insn.R1, 1)
	b.Store(insn.R10, fIdx, insn.R1, 8)
	b.Load(insn.R0, insn.R10, fVLen, 8)
	b.JmpReg(insn.JmpGe, insn.R1, insn.R0, "done")
	b.MovImm(insn.R1, NodeSize)
	b.Ja("bulk-next")

	// init: allocate the bucket array, store its heap offset.
	b.Label("init")
	b.MovImm(insn.R1, Buckets*8)
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "fail")
	b.Mov(insn.R1, insn.R8)
	b.I(insn.Alu64Reg(insn.AluSub, insn.R0, insn.R1))
	b.Store(insn.R8, GlobTable, insn.R0, 8)
	b.Label("done")
	b.Ret(o.RetServed)
	b.Label("fail")
	b.Ret(o.RetErr)
	b.Label("pass")
	b.Ret(o.RetPass)

	return b.MustAssemble()
}
