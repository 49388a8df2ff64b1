package ds

import (
	"unsafe"

	"kflex/asm"
	"kflex/insn"
)

// ZADD (§5.2): Redis implements sorted sets with a hash map from member to
// score plus a skip list ordered by score. The offload allocates both from
// the extension heap: a linear-probing member table (member, score pairs)
// and the skip list keyed by a composite (score << memberBits | member) so
// entries sort by score with unique members.
//
// ZADD poses the §5.2 challenge directly: a score update must delete the
// old skip-list entry and insert a new one, allocating nodes on the fast
// path — infeasible in eBPF, natural with kflex_malloc. The table's offset
// from the heap base is the skip list's globals' Table word.
const (
	// zaddSlots is the member table capacity (power of two).
	zaddSlots = 1 << 17
	// zaddMemberBits is how many low bits of the composite key carry the
	// member ID.
	zaddMemberBits = 20
)

// zaddSlot is one member-table slot; Member 0 marks it empty.
type zaddSlot struct{ Member, Score uint64 }

const (
	zeMember = int16(unsafe.Offsetof(zaddSlot{}.Member))
	zeScore  = int16(unsafe.Offsetof(zaddSlot{}.Score))
	zeSize   = int64(unsafe.Sizeof(zaddSlot{}))
)

// zaddCompose returns the skip-list key for (member, score).
func zaddCompose(member, score uint64) uint64 {
	return score<<zaddMemberBits | member&(1<<zaddMemberBits-1)
}

// zaddProgram builds the ZADD extension (KindZAdd). Ops: OpUpdate =
// ZADD(member=key, score=val) returning 1 when the member was newly added
// and 0 on a score update; OpLookup returns the member's score; OpInit
// allocates the table and skip-list head.
func zaddProgram() *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init -------------------------------------------------------------
	b.Label("init")
	emitSkipInit(b, "oom")
	emitMallocOff(b, zaddSlots*zeSize, skGlobTable, "oom")
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// probe hashes the member (rKey) to a slot index in R4 and probes
	// linearly from there with R5 = &table[R4], jumping to found at the
	// member's slot and to empty at the first empty one. Clobbers R0, R3.
	probe := func(empty, found string) {
		loop := b.Scope()("probe")
		b.I(insn.LoadImm(insn.R0, hashMix))
		b.Mov(insn.R4, rKey)
		b.I(insn.Alu64Reg(insn.AluMul, insn.R4, insn.R0))
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R4, 32))
		b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, zaddSlots-1))
		b.Label(loop)
		b.Load(insn.R5, rHeap, skGlobTable, 8)
		b.Mov(insn.R0, insn.R4)
		b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, 4)) // ×zeSize
		b.AddReg(insn.R5, insn.R0)
		b.AddReg(insn.R5, rHeap)
		b.Load(insn.R3, insn.R5, zeMember, 8)
		b.JmpImm(insn.JmpEq, insn.R3, 0, empty)
		b.JmpReg(insn.JmpEq, insn.R3, rKey, found)
		b.Add(insn.R4, 1)
		b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, zaddSlots-1))
		b.Ja(loop)
	}

	// --- lookup: member -> score -------------------------------------------
	b.Label("lookup")
	probe("zlk-miss", "zlk-hit")
	b.Label("zlk-hit")
	b.Load(insn.R0, insn.R5, zeScore, 8)
	b.Store(rCtx, ctxOut, insn.R0, 8)
	b.Ret(RetFound)
	b.Label("zlk-miss")
	b.Ret(RetMiss)

	// --- update: ZADD(member, score) ----------------------------------------
	// Stack: fp-48 = member, fp-56 = the score to compose a key from (the
	// old one while its entry is deleted). fp-8..-24 belong to the
	// skip-list emitters.
	b.Label("update")
	b.Load(insn.R0, rCtx, ctxVal, 8)
	b.Store(insn.R10, -56, insn.R0, 8) // new score
	b.Store(insn.R10, -48, rKey, 8)    // member
	probe("zup-new", "zup-exists")

	// New member: claim the slot, insert into the skip list.
	b.Label("zup-new")
	b.Store(insn.R5, zeMember, rKey, 8)
	b.Load(insn.R0, insn.R10, -56, 8)
	b.Store(insn.R5, zeScore, insn.R0, 8)
	emitZaddComposite(b) // R7 = compose(score fp-56, member fp-48)
	b.StoreImm(insn.R10, fpSkipVal, 0, 8)
	emitSkipInsert(b, "zup-added", "oom")
	b.Label("zup-added")
	b.Ret(RetFound) // newly added (ZADD returns #added)

	// Existing member: if the score changed, move the skip-list entry.
	b.Label("zup-exists")
	b.Load(insn.R1, insn.R5, zeScore, 8) // old score
	b.Load(insn.R0, insn.R10, -56, 8)    // new score
	b.JmpReg(insn.JmpEq, insn.R1, insn.R0, "zup-same")
	b.Store(insn.R5, zeScore, insn.R0, 8) // table gets the new score
	// Delete the old composite entry: stage the old score at fp-56.
	b.Store(insn.R10, -56, insn.R1, 8)
	emitZaddComposite(b)
	emitSkipDelete(b, "zup-deleted")
	b.Label("zup-deleted")
	// Insert the new composite entry (restore the new score first).
	b.Load(insn.R0, rCtx, ctxVal, 8)
	b.Store(insn.R10, -56, insn.R0, 8)
	emitZaddComposite(b)
	b.StoreImm(insn.R10, fpSkipVal, 0, 8)
	emitSkipInsert(b, "zup-moved", "oom")
	b.Label("zup-moved")
	b.Ret(RetMiss) // updated, not added
	b.Label("zup-same")
	b.Ret(RetMiss)

	// --- delete (ZREM) -------------------------------------------------------
	// Unsupported: every ZREM misses. It is not part of Figure 6's workload,
	// and removal from a linear-probing table without tombstones needs
	// backward-shift deletion.
	b.Label("delete")
	b.Ret(RetMiss)

	return b
}

// emitZaddComposite sets R7 = compose(*(fp-56), *(fp-48)). Clobbers R0–R2.
func emitZaddComposite(b *asm.Builder) {
	b.Load(insn.R0, insn.R10, -56, 8) // score
	b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, zaddMemberBits))
	b.Load(insn.R1, insn.R10, -48, 8) // member
	b.I(insn.LoadImm(insn.R2, 1<<zaddMemberBits-1))
	b.I(insn.Alu64Reg(insn.AluAnd, insn.R1, insn.R2))
	b.I(insn.Alu64Reg(insn.AluOr, insn.R0, insn.R1))
	b.Mov(rKey, insn.R0)
}

// --- Native twin -------------------------------------------------------------------

// NativeZSet is the user-space sorted set: Go map + the native skip list,
// protected by the caller (Redis's ZADD holds a global lock, §5.2).
type NativeZSet struct {
	scores map[uint64]uint64
	skip   *nativeSkip
}

// NewNativeZSet returns an empty sorted set.
func NewNativeZSet() *NativeZSet {
	return &NativeZSet{scores: make(map[uint64]uint64), skip: newNativeSkip()}
}

// ZAdd inserts or updates a member; it reports whether the member is new.
func (z *NativeZSet) ZAdd(member, score uint64) bool {
	old, exists := z.scores[member]
	if exists && old == score {
		return false
	}
	if exists {
		z.skip.Delete(zaddCompose(member, old))
	}
	z.scores[member] = score
	z.skip.Update(zaddCompose(member, score), 0)
	return !exists
}

// Score returns a member's score.
func (z *NativeZSet) Score(member uint64) (uint64, bool) {
	s, ok := z.scores[member]
	return s, ok
}

// Len returns the member count.
func (z *NativeZSet) Len() int { return len(z.scores) }
