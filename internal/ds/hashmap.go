package ds

import (
	"unsafe"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// Hash map layout: a bucket array of NumBuckets chain-head pointers
// allocated from the heap at init, plus chained nodes.
type (
	hashLayout  struct{ Key, Val, Next uint64 }
	hashGlobals struct {
		// Buckets holds the bucket array's offset from the heap base.
		// Storing the offset (a scalar) rather than a pointer documents the
		// §5.4 case range analysis cannot elide: the bucket index is an
		// unbounded scalar added to the heap base, so every bucket access
		// needs a manipulation guard (the paper's hashmap-lookup row).
		Buckets uint64
	}
)

const (
	hnKey  = int16(unsafe.Offsetof(hashLayout{}.Key))
	hnVal  = int16(unsafe.Offsetof(hashLayout{}.Val))
	hnNext = int16(unsafe.Offsetof(hashLayout{}.Next))
	hnSize = int64(unsafe.Sizeof(hashLayout{}))

	hashGlobOff = globalsOff + int16(unsafe.Offsetof(hashGlobals{}.Buckets))
)

// emitBucketAddr computes &buckets[hash(key)] into dst. dst becomes an
// adjusted heap pointer whose delta the verifier cannot bound, so the first
// access through it is a (non-elidable) manipulation guard.
func emitBucketAddr(b *asm.Builder, dst insn.Reg) {
	b.Load(dst, rHeap, hashGlobOff, 8) // bucket array offset (scalar)
	// idx = (key * hashMix) >> 32 & (NumBuckets-1), scaled by 8.
	b.I(insn.LoadImm(insn.R0, hashMix))
	b.Mov(insn.R1, rKey)
	b.I(insn.Alu64Reg(insn.AluMul, insn.R1, insn.R0))
	b.I(insn.Alu64Imm(insn.AluRsh, insn.R1, 32))
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R1, NumBuckets-1))
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R1, 3))
	b.AddReg(dst, insn.R1)
	b.AddReg(dst, rHeap) // heap base + unbounded scalar
}

// hashProgram builds the hash map extension: chained hashing with the
// bucket array and all nodes living in the extension heap.
func hashProgram() *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init: allocate the (zeroed) bucket array -----------------------
	// Fresh heap pages are zero-filled, so no explicit memset is needed.
	b.Label("init")
	emitMallocOff(b, NumBuckets*8, hashGlobOff, "oom")
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// --- lookup ----------------------------------------------------------
	b.Label("lookup")
	emitBucketAddr(b, insn.R5)
	b.Load(rCur, insn.R5, 0, 8) // chain head (manipulation guard)
	// Each key read takes a formation guard.
	emitWalk(b, insn.R0, hnKey, hnNext, "hlk-miss", "hlk-hit")
	b.Label("hlk-hit")
	b.Load(insn.R0, rCur, hnVal, 8)
	b.Store(rCtx, ctxOut, insn.R0, 8)
	b.Ret(RetFound)
	b.Label("hlk-miss")
	b.Ret(RetMiss)

	// --- update ----------------------------------------------------------
	b.Label("update")
	emitBucketAddr(b, insn.R5)
	b.Load(rCur, insn.R5, 0, 8) // manipulation guard; R5 now sanitized
	emitWalk(b, insn.R0, hnKey, hnNext, "hup-insert", "hup-overwrite")
	b.Label("hup-overwrite")
	b.Load(insn.R0, rCtx, ctxVal, 8)
	b.Store(rCur, hnVal, insn.R0, 8)
	b.Ret(0)
	b.Label("hup-insert")
	b.Store(insn.R10, -8, insn.R5, 8) // spill sanitized bucket pointer
	emitMalloc(b, hnSize, "oom")
	b.Store(insn.R0, hnKey, rKey, 8)
	b.Load(insn.R2, rCtx, ctxVal, 8)
	b.Store(insn.R0, hnVal, insn.R2, 8)
	b.Load(insn.R5, insn.R10, -8, 8)     // restore bucket pointer (still sanitized)
	b.Load(insn.R3, insn.R5, 0, 8)       // old head (elided: spill preserved state)
	b.Store(insn.R0, hnNext, insn.R3, 8) // n->next = old
	b.Store(insn.R5, 0, insn.R0, 8)      // bucket = n (elided)
	b.Ret(0)

	// --- delete ----------------------------------------------------------
	b.Label("delete")
	emitBucketAddr(b, insn.R5)
	b.Load(rCur, insn.R5, 0, 8) // manipulation guard
	b.MovImm(insn.R4, 0)        // prev = NULL
	b.Label("hdl-loop")
	b.JmpImm(insn.JmpEq, rCur, 0, "hdl-miss")
	b.Load(insn.R0, rCur, hnKey, 8)
	b.JmpReg(insn.JmpEq, insn.R0, rKey, "hdl-hit")
	b.Mov(insn.R4, rCur)
	b.Load(rCur, rCur, hnNext, 8)
	b.Ja("hdl-loop")
	b.Label("hdl-hit")
	b.Load(insn.R3, rCur, hnNext, 8) // next
	b.JmpImm(insn.JmpEq, insn.R4, 0, "hdl-unlink-head")
	b.Store(insn.R4, hnNext, insn.R3, 8) // prev->next = next
	b.Ja("hdl-free")
	b.Label("hdl-unlink-head")
	b.Store(insn.R5, 0, insn.R3, 8) // bucket = next (elided)
	b.Label("hdl-free")
	b.Mov(insn.R1, rCur)
	b.Call(kernel.HelperKflexFree)
	b.Ret(RetFound)
	b.Label("hdl-miss")
	b.Ret(RetMiss)

	return b
}
