package ds

import (
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/listing1"
	"kflex/internal/kernel"
)

// listProgram builds the linked-list extension of Listing 1: a key-value
// store over a doubly linked list of Listing 1's struct elem, with
// constant-time update (push front) and full-list traversal for lookup and
// delete.
func listProgram() *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init: head = NULL --------------------------------------------
	b.Label("init")
	b.Mov(insn.R1, rHeap)
	b.StoreImm(insn.R1, listing1.GlobHead, 0, 8)
	b.Ret(0)

	// --- update: node = malloc; push front ----------------------------
	b.Label("update")
	emitMalloc(b, listing1.NodeSize, "oom")
	b.Mov(rCur, insn.R0)                        // n (fresh, sanitized)
	b.Store(rCur, listing1.NodeKey, rKey, 8)    // n->key = key
	b.Load(insn.R2, rCtx, ctxVal, 8)            // value
	b.Store(rCur, listing1.NodeVal, insn.R2, 8) // n->val = value
	b.Mov(insn.R3, rHeap)
	b.Load(insn.R4, insn.R3, listing1.GlobHead, 8) // old = head
	b.Store(rCur, listing1.NodeNext, insn.R4, 8)   // n->next = old
	b.StoreImm(rCur, listing1.NodePrev, 0, 8)      // n->prev = NULL
	b.JmpImm(insn.JmpEq, insn.R4, 0, "set-head")
	b.Store(insn.R4, listing1.NodePrev, rCur, 8) // old->prev = n (formation write guard)
	b.Label("set-head")
	b.Store(insn.R3, listing1.GlobHead, rCur, 8) // head = n
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// --- lookup: walk e = e->next until key matches --------------------
	// The key read takes a formation guard; the next read is elided after it.
	b.Label("lookup")
	b.Mov(insn.R2, rHeap)
	b.Load(rCur, insn.R2, listing1.GlobHead, 8) // e = head
	emitWalk(b, insn.R3, listing1.NodeKey, listing1.NodeNext, "lk-miss", "lk-hit")
	b.Label("lk-hit")
	b.Load(insn.R3, rCur, listing1.NodeVal, 8)
	b.Store(rCtx, ctxOut, insn.R3, 8)
	b.Ret(RetFound)
	b.Label("lk-miss")
	b.Ret(RetMiss)

	// --- delete: walk, unlink, free (Listing 1's case 1) ----------------
	b.Label("delete")
	b.Mov(insn.R2, rHeap)
	b.Load(rCur, insn.R2, listing1.GlobHead, 8)
	emitWalk(b, insn.R3, listing1.NodeKey, listing1.NodeNext, "dl-miss", "dl-hit")
	b.Label("dl-hit")
	b.Load(insn.R3, rCur, listing1.NodeNext, 8) // next
	b.Load(insn.R4, rCur, listing1.NodePrev, 8) // prev
	b.JmpImm(insn.JmpEq, insn.R4, 0, "dl-head")
	b.Store(insn.R4, listing1.NodeNext, insn.R3, 8) // prev->next = next
	b.Ja("dl-fix-next")
	b.Label("dl-head")
	b.Mov(insn.R5, rHeap)
	b.Store(insn.R5, listing1.GlobHead, insn.R3, 8) // head = next
	b.Label("dl-fix-next")
	b.JmpImm(insn.JmpEq, insn.R3, 0, "dl-free")
	b.Store(insn.R3, listing1.NodePrev, insn.R4, 8) // next->prev = prev
	b.Label("dl-free")
	b.Mov(insn.R1, rCur)
	b.Call(kernel.HelperKflexFree) // kflex_free(e), Listing 1 line 44
	b.Ret(RetFound)
	b.Label("dl-miss")
	b.Ret(RetMiss)

	return b
}
