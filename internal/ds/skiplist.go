package ds

import (
	"unsafe"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// Skip list layout. Nodes carry a full-height tower (size classes round up
// anyway); the search path ("update" array) lives in the globals because
// stack slots must have constant offsets.
type (
	skipLayout struct {
		Key, Val, Level uint64
		Next            [SkipMaxLevel]uint64
	}
	skipGlobals struct {
		Head  uint64 // head tower
		Level uint64 // current list level
		_     [2]uint64
		Table uint64 // ZADD's member table, as an offset from the heap base
		_     [3]uint64
		Path  [SkipMaxLevel]uint64 // update[]: the search path
	}
)

const (
	snKey   = int16(unsafe.Offsetof(skipLayout{}.Key))
	snVal   = int16(unsafe.Offsetof(skipLayout{}.Val))
	snLevel = int16(unsafe.Offsetof(skipLayout{}.Level))
	snNext  = int16(unsafe.Offsetof(skipLayout{}.Next))
	snSize  = int64(unsafe.Sizeof(skipLayout{}))

	skGlobHead  = globalsOff + int16(unsafe.Offsetof(skipGlobals{}.Head))
	skGlobLevel = globalsOff + int16(unsafe.Offsetof(skipGlobals{}.Level))
	skGlobTable = globalsOff + int16(unsafe.Offsetof(skipGlobals{}.Table))
	skGlobPath  = globalsOff + int16(unsafe.Offsetof(skipGlobals{}.Path))
)

// emitSlotAddr computes &arr[i&15] into dst for the array at off from base
// (clobbers R0): a tower's next[] (base a node, off snNext) or the search
// path (base rHeap, off skGlobPath). Masking bounds the delta so accesses
// through sanitized pointers elide their guards (§3.2 range analysis).
func emitSlotAddr(b *asm.Builder, dst, base insn.Reg, off int16, i insn.Reg) {
	b.Mov(insn.R0, i)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R0, SkipMaxLevel-1))
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, 3))
	b.Mov(dst, base)
	b.Add(dst, int32(off))
	b.AddReg(dst, insn.R0)
}

// emitSearch walks the list from the top level down, leaving the
// predecessor at every level in the search path and the level-0 predecessor
// in rCur, then jumps to miss unless its successor, left in R3, holds rKey.
// Uses R4 (level index) and R1–R3.
func emitSearch(b *asm.Builder, miss string) {
	l := b.Scope()
	b.Load(rCur, rHeap, skGlobHead, 8) // x = head
	b.Load(insn.R4, rHeap, skGlobLevel, 8)
	b.Add(insn.R4, -1) // i = level - 1
	b.Label(l("lvl"))
	b.JmpImm(insn.JmpSlt, insn.R4, 0, l("done"))
	b.Label(l("inner"))
	emitSlotAddr(b, insn.R2, rCur, snNext, insn.R4)
	b.Load(insn.R3, insn.R2, 0, 8) // next = x->next[i]
	b.JmpImm(insn.JmpEq, insn.R3, 0, l("drop"))
	b.Load(insn.R1, insn.R3, snKey, 8) // next->key
	b.JmpReg(insn.JmpGe, insn.R1, rKey, l("drop"))
	b.Mov(rCur, insn.R3) // x = next
	b.Ja(l("inner"))
	b.Label(l("drop"))
	emitSlotAddr(b, insn.R2, rHeap, skGlobPath, insn.R4)
	b.Store(insn.R2, 0, rCur, 8) // update[i] = x
	b.Add(insn.R4, -1)
	b.Ja(l("lvl"))
	b.Label(l("done"))
	b.Load(insn.R3, rCur, snNext, 8) // x->next[0]
	b.JmpImm(insn.JmpEq, insn.R3, 0, miss)
	b.Load(insn.R1, insn.R3, snKey, 8)
	b.JmpReg(insn.JmpNe, insn.R1, rKey, miss)
}

// Skip-list emitter stack-frame slots (callers must not reuse them):
// fp-8 = newLevel, fp-16 = free spill, fp-24 = value to insert.
const (
	fpSkipLevel = -8
	fpSkipFree  = -16
	fpSkipVal   = -24
)

// emitSkipInsert inserts (R7, *(fp-24)) into the skip list, overwriting an
// existing key. Jumps to done when finished and to oom when the heap is
// exhausted. Clobbers R0–R5 and rCur.
func emitSkipInsert(b *asm.Builder, done, oom string) {
	l := b.Scope()
	// Draw the tower height first (the helper clobbers R1–R5).
	b.Call(kernel.HelperPrandomU32)
	b.MovImm(insn.R5, 1) // lvl = 1
	b.Label(l("rnd"))
	b.JmpImm(insn.JmpEq, insn.R5, SkipMaxLevel, l("rnd-done"))
	b.Mov(insn.R1, insn.R0)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R1, 1))
	b.JmpImm(insn.JmpEq, insn.R1, 0, l("rnd-done"))
	b.Add(insn.R5, 1)
	b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, 1))
	b.Ja(l("rnd"))
	b.Label(l("rnd-done"))
	b.Store(insn.R10, fpSkipLevel, insn.R5, 8)

	emitSearch(b, l("insert"))
	b.Load(insn.R1, insn.R10, fpSkipVal, 8) // overwrite existing
	b.Store(insn.R3, snVal, insn.R1, 8)
	b.Ja(done)

	b.Label(l("insert"))
	// Extend the list level if the new tower is taller: update[i] = head
	// for i in [level, newLevel).
	b.Load(insn.R4, rHeap, skGlobLevel, 8) // i = level
	b.Load(insn.R5, insn.R10, fpSkipLevel, 8)
	b.Label(l("extend"))
	b.JmpReg(insn.JmpGe, insn.R4, insn.R5, l("extend-done"))
	b.Load(insn.R3, rHeap, skGlobHead, 8)
	emitSlotAddr(b, insn.R2, rHeap, skGlobPath, insn.R4)
	b.Store(insn.R2, 0, insn.R3, 8)
	b.Add(insn.R4, 1)
	b.Ja(l("extend"))
	b.Label(l("extend-done"))
	// level = max(level, newLevel)
	b.Load(insn.R1, rHeap, skGlobLevel, 8)
	b.JmpReg(insn.JmpGe, insn.R1, insn.R5, l("lvl-keep"))
	b.Store(rHeap, skGlobLevel, insn.R5, 8)
	b.Label(l("lvl-keep"))

	emitMalloc(b, snSize, oom)
	b.Mov(rCur, insn.R0) // n
	b.Store(rCur, snKey, rKey, 8)
	b.Load(insn.R1, insn.R10, fpSkipVal, 8)
	b.Store(rCur, snVal, insn.R1, 8)
	b.Load(insn.R5, insn.R10, fpSkipLevel, 8)
	b.Store(rCur, snLevel, insn.R5, 8)
	// Splice: for i in [0, newLevel): n->next[i] = update[i]->next[i];
	// update[i]->next[i] = n.
	b.MovImm(insn.R4, 0)
	b.Label(l("splice"))
	b.JmpReg(insn.JmpGe, insn.R4, insn.R5, done)
	emitSlotAddr(b, insn.R2, rHeap, skGlobPath, insn.R4)
	b.Load(insn.R3, insn.R2, 0, 8) // pred = update[i]
	emitSlotAddr(b, insn.R2, insn.R3, snNext, insn.R4)
	b.Load(insn.R1, insn.R2, 0, 8) // pred->next[i]
	b.Store(insn.R2, 0, rCur, 8)   // pred->next[i] = n
	emitSlotAddr(b, insn.R2, rCur, snNext, insn.R4)
	b.Store(insn.R2, 0, insn.R1, 8) // n->next[i] = old
	b.Add(insn.R4, 1)
	b.Ja(l("splice"))
}

// emitSkipDelete removes R7 from the skip list if present; R0 := 1 when a
// node was removed, 0 otherwise. Jumps to done when finished. Clobbers
// R0–R5 and rCur.
func emitSkipDelete(b *asm.Builder, done string) {
	l := b.Scope()
	emitSearch(b, l("miss"))
	b.Mov(rCur, insn.R3)                   // n (shadowing the search cursor)
	b.Store(insn.R10, fpSkipFree, rCur, 8) // spill n for the free call
	// Unsplice every level that points at n.
	b.MovImm(insn.R4, 0)
	b.Load(insn.R5, rHeap, skGlobLevel, 8)
	b.Label(l("unsplice"))
	b.JmpReg(insn.JmpGe, insn.R4, insn.R5, l("unsplice-done"))
	emitSlotAddr(b, insn.R2, rHeap, skGlobPath, insn.R4)
	b.Load(insn.R3, insn.R2, 0, 8) // pred = update[i]
	emitSlotAddr(b, insn.R2, insn.R3, snNext, insn.R4)
	b.Load(insn.R1, insn.R2, 0, 8) // pred->next[i]
	b.JmpReg(insn.JmpNe, insn.R1, rCur, l("next-level"))
	emitSlotAddr(b, insn.R3, rCur, snNext, insn.R4)
	b.Load(insn.R3, insn.R3, 0, 8)  // n->next[i]
	b.Store(insn.R2, 0, insn.R3, 8) // pred->next[i] = n->next[i]
	b.Label(l("next-level"))
	b.Add(insn.R4, 1)
	b.Ja(l("unsplice"))
	b.Label(l("unsplice-done"))
	// Shrink the list level while the top level is empty.
	b.Label(l("shrink"))
	b.Load(insn.R5, rHeap, skGlobLevel, 8)
	b.JmpImm(insn.JmpLe, insn.R5, 1, l("free"))
	b.Load(insn.R3, rHeap, skGlobHead, 8)
	b.Mov(insn.R4, insn.R5)
	b.Add(insn.R4, -1)
	emitSlotAddr(b, insn.R2, insn.R3, snNext, insn.R4)
	b.Load(insn.R1, insn.R2, 0, 8)
	b.JmpImm(insn.JmpNe, insn.R1, 0, l("free"))
	b.Store(rHeap, skGlobLevel, insn.R4, 8)
	b.Ja(l("shrink"))
	b.Label(l("free"))
	b.Load(insn.R1, insn.R10, fpSkipFree, 8)
	b.Call(kernel.HelperKflexFree)
	b.MovImm(insn.R0, 1)
	b.Ja(done)
	b.Label(l("miss"))
	b.MovImm(insn.R0, 0)
	b.Ja(done)
}

// emitSkipInit allocates the head tower and sets level = 1, jumping to oom
// on exhaustion and falling through on success.
func emitSkipInit(b *asm.Builder, oom string) {
	emitMalloc(b, snSize, oom)
	b.Store(rHeap, skGlobHead, insn.R0, 8)
	b.MovImm(insn.R1, 1)
	b.Store(rHeap, skGlobLevel, insn.R1, 8)
}

// skipProgram builds the skip-list extension (the structure Redis's ZADD
// offload depends on, §5.2).
func skipProgram() *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init: allocate the head tower, level = 1 -----------------------
	b.Label("init")
	emitSkipInit(b, "oom")
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// --- lookup ----------------------------------------------------------
	b.Label("lookup")
	emitSearch(b, "slk-miss")
	b.Load(insn.R1, insn.R3, snVal, 8)
	b.Store(rCtx, ctxOut, insn.R1, 8)
	b.Ret(RetFound)
	b.Label("slk-miss")
	b.Ret(RetMiss)

	// --- update ----------------------------------------------------------
	b.Label("update")
	b.Load(insn.R1, rCtx, ctxVal, 8)
	b.Store(insn.R10, fpSkipVal, insn.R1, 8)
	emitSkipInsert(b, "up-done", "oom")
	b.Label("up-done")
	b.Ret(0)

	// --- delete ----------------------------------------------------------
	b.Label("delete")
	emitSkipDelete(b, "dl-done")
	b.Label("dl-done")
	b.JmpImm(insn.JmpEq, insn.R0, 0, "dl-miss")
	b.Ret(RetFound)
	b.Label("dl-miss")
	b.Ret(RetMiss)

	return b
}
