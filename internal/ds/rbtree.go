package ds

import (
	"unsafe"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/kernel"
)

// Red-black tree layout: nodes, and the root pointer in the globals.
type (
	rbLayout struct {
		Key, Val, Left, Right, Parent uint64
		Color                         uint64 // 0 = red, 1 = black (NULL reads as black)
	}
	rbGlobals struct{ Root uint64 }
)

const (
	rbKey    = int16(unsafe.Offsetof(rbLayout{}.Key))
	rbVal    = int16(unsafe.Offsetof(rbLayout{}.Val))
	rbLeft   = int16(unsafe.Offsetof(rbLayout{}.Left))
	rbRight  = int16(unsafe.Offsetof(rbLayout{}.Right))
	rbParent = int16(unsafe.Offsetof(rbLayout{}.Parent))
	rbColor  = int16(unsafe.Offsetof(rbLayout{}.Color))
	rbSize   = int64(unsafe.Sizeof(rbLayout{}))

	rbGlobRoot = globalsOff + int16(unsafe.Offsetof(rbGlobals{}.Root))
)

// sides returns the child links of one side and of its mirror: (right,
// left) when right, else (left, right). Every mirrored fragment below is
// written once over such a pair.
func sides(right bool) (near, far int16) {
	if right {
		return rbRight, rbLeft
	}
	return rbLeft, rbRight
}

// emitRotate expands a left or right rotation around the node in R2.
// Clobbers R0, R1, R5; preserves R2, R3, R4, R6.
//
//	left rotate:  y = x->right, x->right = y->left, ..., y->left = x
//	right rotate: mirror with left/right swapped
func emitRotate(b *asm.Builder, left bool) {
	down, up := sides(left)
	l := b.Scope()
	b.Load(insn.R5, insn.R2, down, 8) // y = x->down
	b.Load(insn.R0, insn.R5, up, 8)   // t = y->up
	b.Store(insn.R2, down, insn.R0, 8)
	b.JmpImm(insn.JmpEq, insn.R0, 0, l("p1"))
	b.Store(insn.R0, rbParent, insn.R2, 8) // t->parent = x
	b.Label(l("p1"))
	b.Load(insn.R0, insn.R2, rbParent, 8)  // xp
	b.Store(insn.R5, rbParent, insn.R0, 8) // y->parent = xp
	b.JmpImm(insn.JmpNe, insn.R0, 0, l("p2"))
	b.Store(rHeap, rbGlobRoot, insn.R5, 8) // root = y
	b.Ja(l("link"))
	b.Label(l("p2"))
	b.Load(insn.R1, insn.R0, rbLeft, 8)
	b.JmpReg(insn.JmpNe, insn.R1, insn.R2, l("p3"))
	b.Store(insn.R0, rbLeft, insn.R5, 8)
	b.Ja(l("link"))
	b.Label(l("p3"))
	b.Store(insn.R0, rbRight, insn.R5, 8)
	b.Label(l("link"))
	b.Store(insn.R5, up, insn.R2, 8)       // y->up = x
	b.Store(insn.R2, rbParent, insn.R5, 8) // x->parent = y
}

// emitTransplant replaces subtree u with v in u's parent (CLRS
// RB-TRANSPLANT). u and v must not be R0/R1; clobbers R0, R1.
func emitTransplant(b *asm.Builder, u, v insn.Reg) {
	l := b.Scope()
	b.Load(insn.R0, u, rbParent, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 0, l("p2"))
	b.Store(rHeap, rbGlobRoot, v, 8)
	b.Ja(l("setp"))
	b.Label(l("p2"))
	b.Load(insn.R1, insn.R0, rbLeft, 8)
	b.JmpReg(insn.JmpNe, insn.R1, u, l("p3"))
	b.Store(insn.R0, rbLeft, v, 8)
	b.Ja(l("setp"))
	b.Label(l("p3"))
	b.Store(insn.R0, rbRight, v, 8)
	b.Label(l("setp"))
	b.JmpImm(insn.JmpEq, v, 0, l("done"))
	b.Store(v, rbParent, insn.R0, 8)
	b.Label(l("done"))
}

// emitColorOf loads colorOf(node) into dst (NULL is black). dst != node.
func emitColorOf(b *asm.Builder, dst, node insn.Reg) {
	l := b.Scope()
	b.JmpImm(insn.JmpEq, node, 0, l("null"))
	b.Load(dst, node, rbColor, 8)
	b.Ja(l("done"))
	b.Label(l("null"))
	b.MovImm(dst, 1)
	b.Label(l("done"))
}

// emitFind walks the tree from the root to the node holding rKey, jumping
// to hit with it in rCur, or to miss at a NULL link.
func emitFind(b *asm.Builder, miss, hit string) {
	l := b.Scope()
	b.Load(rCur, rHeap, rbGlobRoot, 8)
	b.Label(l("find"))
	b.JmpImm(insn.JmpEq, rCur, 0, miss)
	b.Load(insn.R0, rCur, rbKey, 8)
	b.JmpReg(insn.JmpEq, insn.R0, rKey, hit)
	b.JmpReg(insn.JmpLt, rKey, insn.R0, l("left"))
	b.Load(rCur, rCur, rbRight, 8)
	b.Ja(l("find"))
	b.Label(l("left"))
	b.Load(rCur, rCur, rbLeft, 8)
	b.Ja(l("find"))
}

// emitInsertArm is one arm of CLRS RB-INSERT-FIXUP: z in rCur, its red
// parent p (R5) the grandparent g's (R4) child on the right side when right,
// else on the left. Loops back to rup-fix.
func emitInsertArm(b *asm.Builder, right bool) {
	_, far := sides(right)
	l := b.Scope()
	b.Load(insn.R3, insn.R4, far, 8) // uncle
	emitColorOf(b, insn.R0, insn.R3)
	b.JmpImm(insn.JmpNe, insn.R0, 0, l("rotate"))
	b.StoreImm(insn.R5, rbColor, 1, 8) // recolor
	b.StoreImm(insn.R3, rbColor, 1, 8)
	b.StoreImm(insn.R4, rbColor, 0, 8)
	b.Mov(rCur, insn.R4) // z = g
	b.Ja("rup-fix")
	b.Label(l("rotate"))
	b.Load(insn.R0, insn.R5, far, 8)
	b.JmpReg(insn.JmpNe, insn.R0, rCur, l("outer"))
	b.Mov(rCur, insn.R5) // inner z: z = p, rotated to p's side
	b.Mov(insn.R2, rCur)
	emitRotate(b, !right)
	b.Label(l("outer"))
	b.Load(insn.R5, rCur, rbParent, 8)
	b.StoreImm(insn.R5, rbColor, 1, 8) // p -> black
	b.Load(insn.R4, insn.R5, rbParent, 8)
	b.StoreImm(insn.R4, rbColor, 0, 8) // g -> red
	b.Mov(insn.R2, insn.R4)
	emitRotate(b, right) // rotate g away from p's side
	b.Ja("rup-fix")
}

// emitSpliceOut removes z (rCur), which has no child on the other side, by
// moving its child on side up: x = that child (R3), xParent = z->parent
// (R4), yColor = z's color (fp-24).
func emitSpliceOut(b *asm.Builder, side int16) {
	b.Load(insn.R3, rCur, side, 8)
	b.Load(insn.R4, rCur, rbParent, 8)
	b.Load(insn.R1, rCur, rbColor, 8)
	b.Store(insn.R10, -24, insn.R1, 8)
	emitTransplant(b, rCur, insn.R3)
	b.Ja("rdl-fix-check")
}

// emitDeleteArm is one arm of CLRS RB-DELETE-FIXUP: x (R3) is its parent's
// (R4) child on the right side when right, else on the left; the sibling w
// (R5) is on the other. Loops back to rdl-fix.
func emitDeleteArm(b *asm.Builder, right bool) {
	near, far := sides(right)
	l := b.Scope()
	b.Load(insn.R5, insn.R4, far, 8)
	b.Load(insn.R0, insn.R5, rbColor, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 0, l("wblack"))
	b.StoreImm(insn.R5, rbColor, 1, 8) // case 1: red sibling
	b.StoreImm(insn.R4, rbColor, 0, 8)
	b.Mov(insn.R2, insn.R4)
	emitRotate(b, !right) // rotate parent toward x's side
	b.Load(insn.R5, insn.R4, far, 8)
	b.Label(l("wblack"))
	b.Load(insn.R1, insn.R5, near, 8)
	emitColorOf(b, insn.R0, insn.R1)
	b.JmpImm(insn.JmpEq, insn.R0, 0, l("case34"))
	b.Load(insn.R1, insn.R5, far, 8)
	emitColorOf(b, insn.R0, insn.R1)
	b.JmpImm(insn.JmpEq, insn.R0, 0, l("case34"))
	b.StoreImm(insn.R5, rbColor, 0, 8) // case 2: both nephews black
	b.Mov(insn.R3, insn.R4)            // x = parent
	b.Load(insn.R4, insn.R3, rbParent, 8)
	b.Ja("rdl-fix")
	b.Label(l("case34"))
	b.Load(insn.R1, insn.R5, far, 8)
	emitColorOf(b, insn.R0, insn.R1)
	b.JmpImm(insn.JmpEq, insn.R0, 0, l("case4"))
	// case 3: w's far child black -> rotate w away from x's side.
	b.Load(insn.R1, insn.R5, near, 8)
	b.JmpImm(insn.JmpEq, insn.R1, 0, l("c3"))
	b.StoreImm(insn.R1, rbColor, 1, 8)
	b.Label(l("c3"))
	b.StoreImm(insn.R5, rbColor, 0, 8)
	b.Mov(insn.R2, insn.R5)
	emitRotate(b, right)
	b.Load(insn.R5, insn.R4, far, 8)
	b.Label(l("case4"))
	b.Load(insn.R0, insn.R4, rbColor, 8) // w->color = parent->color
	b.Store(insn.R5, rbColor, insn.R0, 8)
	b.StoreImm(insn.R4, rbColor, 1, 8)
	b.Load(insn.R1, insn.R5, far, 8)
	b.JmpImm(insn.JmpEq, insn.R1, 0, l("c4"))
	b.StoreImm(insn.R1, rbColor, 1, 8)
	b.Label(l("c4"))
	b.Mov(insn.R2, insn.R4)
	emitRotate(b, !right)
	b.Load(insn.R3, rHeap, rbGlobRoot, 8) // x = root terminates the loop
	b.MovImm(insn.R4, 0)
	b.Ja("rdl-fix")
}

// rbProgram builds the red-black tree extension: full CLRS insert and
// delete with rebalancing, every node allocated with kflex_malloc. This is
// the structure eBPF only recently gained a bespoke kernel implementation
// for (§2.2 cites the rbtree-map patches); KFlex lets the extension define
// it directly.
func rbProgram() *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init -------------------------------------------------------------
	b.Label("init")
	b.Mov(insn.R1, rHeap)
	b.StoreImm(insn.R1, rbGlobRoot, 0, 8)
	b.Ret(0)
	b.Label("oom")
	b.Ret(RetOOM)

	// --- lookup: plain BST search ------------------------------------------
	b.Label("lookup")
	emitFind(b, "rlk-miss", "rlk-hit")
	b.Label("rlk-hit")
	b.Load(insn.R0, rCur, rbVal, 8)
	b.Store(rCtx, ctxOut, insn.R0, 8)
	b.Ret(RetFound)
	b.Label("rlk-miss")
	b.Ret(RetMiss)

	// --- update: BST insert + insert fixup ----------------------------------
	b.Label("update")
	b.Load(rCur, rHeap, rbGlobRoot, 8)
	b.MovImm(insn.R5, 0) // parent
	b.MovImm(insn.R4, 0) // dir: 0 = left, 1 = right
	b.Label("rup-search")
	b.JmpImm(insn.JmpEq, rCur, 0, "rup-insert")
	b.Load(insn.R0, rCur, rbKey, 8)
	b.JmpReg(insn.JmpNe, insn.R0, rKey, "rup-descend")
	b.Load(insn.R1, rCtx, ctxVal, 8) // key exists: overwrite
	b.Store(rCur, rbVal, insn.R1, 8)
	b.Ret(0)
	b.Label("rup-descend")
	b.Mov(insn.R5, rCur)
	b.JmpReg(insn.JmpLt, rKey, insn.R0, "rup-go-left")
	b.MovImm(insn.R4, 1)
	b.Load(rCur, rCur, rbRight, 8)
	b.Ja("rup-search")
	b.Label("rup-go-left")
	b.MovImm(insn.R4, 0)
	b.Load(rCur, rCur, rbLeft, 8)
	b.Ja("rup-search")

	b.Label("rup-insert")
	b.Store(insn.R10, -8, insn.R5, 8)  // spill parent
	b.Store(insn.R10, -16, insn.R4, 8) // spill dir
	emitMalloc(b, rbSize, "oom")
	b.Mov(rCur, insn.R0) // z
	b.Store(rCur, rbKey, rKey, 8)
	b.Load(insn.R1, rCtx, ctxVal, 8)
	b.Store(rCur, rbVal, insn.R1, 8)
	b.StoreImm(rCur, rbLeft, 0, 8)
	b.StoreImm(rCur, rbRight, 0, 8)
	b.StoreImm(rCur, rbColor, 0, 8) // red
	b.Load(insn.R5, insn.R10, -8, 8)
	b.Store(rCur, rbParent, insn.R5, 8)
	b.JmpImm(insn.JmpNe, insn.R5, 0, "rup-link")
	b.Store(rHeap, rbGlobRoot, rCur, 8) // first node becomes the root
	b.Ja("rup-fix")
	b.Label("rup-link")
	b.Load(insn.R4, insn.R10, -16, 8)
	b.JmpImm(insn.JmpEq, insn.R4, 0, "rup-link-left")
	b.Store(insn.R5, rbRight, rCur, 8)
	b.Ja("rup-fix")
	b.Label("rup-link-left")
	b.Store(insn.R5, rbLeft, rCur, 8)

	// Insert fixup (CLRS RB-INSERT-FIXUP); z in rCur.
	b.Label("rup-fix")
	b.Load(insn.R5, rCur, rbParent, 8) // p
	b.JmpImm(insn.JmpEq, insn.R5, 0, "rup-fix-done")
	b.Load(insn.R0, insn.R5, rbColor, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 0, "rup-fix-done") // p black
	b.Load(insn.R4, insn.R5, rbParent, 8)            // g (non-NULL: red p is never root)
	b.Load(insn.R0, insn.R4, rbLeft, 8)
	b.JmpReg(insn.JmpEq, insn.R0, insn.R5, "rup-fix-l")
	emitInsertArm(b, true) // p == g->right
	b.Label("rup-fix-l")
	emitInsertArm(b, false) // p == g->left
	b.Label("rup-fix-done")
	b.Load(insn.R0, rHeap, rbGlobRoot, 8)
	b.StoreImm(insn.R0, rbColor, 1, 8) // root is always black
	b.Ret(0)

	// --- delete: CLRS RB-DELETE with explicit (x, xParent) ------------------
	// x and xParent live in R3 and R4; spills: fp-24 = yColor, fp-32 = z.
	b.Label("delete")
	emitFind(b, "rdl-miss", "rdl-found")
	b.Label("rdl-miss")
	b.Ret(RetMiss)

	b.Label("rdl-found")
	b.Store(insn.R10, -32, rCur, 8) // spill z
	b.Load(insn.R0, rCur, rbLeft, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 0, "rdl-has-left")
	emitSpliceOut(b, rbRight) // no left child
	b.Label("rdl-has-left")
	b.Load(insn.R1, rCur, rbRight, 8)
	b.JmpImm(insn.JmpNe, insn.R1, 0, "rdl-two")
	emitSpliceOut(b, rbLeft) // only a left child

	// Two children: y = minimum(z->right) replaces z.
	b.Label("rdl-two")
	b.Mov(insn.R5, insn.R1) // y = z->right
	b.Label("rdl-min")
	b.Load(insn.R0, insn.R5, rbLeft, 8)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "rdl-min-done")
	b.Mov(insn.R5, insn.R0)
	b.Ja("rdl-min")
	b.Label("rdl-min-done")
	b.Load(insn.R1, insn.R5, rbColor, 8)
	b.Store(insn.R10, -24, insn.R1, 8)   // yColor
	b.Load(insn.R3, insn.R5, rbRight, 8) // x = y->right
	b.Load(insn.R0, insn.R5, rbParent, 8)
	b.JmpReg(insn.JmpNe, insn.R0, rCur, "rdl-far-min")
	b.Mov(insn.R4, insn.R5) // y is z's child: xParent = y
	b.Ja("rdl-splice")
	b.Label("rdl-far-min")
	b.Mov(insn.R4, insn.R0) // xParent = y->parent
	emitTransplant(b, insn.R5, insn.R3)
	b.Load(insn.R0, rCur, rbRight, 8) // y->right = z->right
	b.Store(insn.R5, rbRight, insn.R0, 8)
	b.Store(insn.R0, rbParent, insn.R5, 8)
	b.Label("rdl-splice")
	emitTransplant(b, rCur, insn.R5)
	b.Load(insn.R0, rCur, rbLeft, 8) // y->left = z->left
	b.Store(insn.R5, rbLeft, insn.R0, 8)
	b.Store(insn.R0, rbParent, insn.R5, 8)
	b.Load(insn.R0, rCur, rbColor, 8) // y->color = z->color
	b.Store(insn.R5, rbColor, insn.R0, 8)

	b.Label("rdl-fix-check")
	b.Load(insn.R0, insn.R10, -24, 8)
	b.JmpImm(insn.JmpNe, insn.R0, 1, "rdl-free") // removed a red node: done

	// Delete fixup (CLRS RB-DELETE-FIXUP); x in R3, parent in R4.
	b.Label("rdl-fix")
	b.Load(insn.R0, rHeap, rbGlobRoot, 8)
	b.JmpReg(insn.JmpEq, insn.R3, insn.R0, "rdl-fix-done")
	emitColorOf(b, insn.R0, insn.R3)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "rdl-fix-done") // x red: recolor at end
	b.JmpImm(insn.JmpEq, insn.R4, 0, "rdl-fix-done")
	b.Load(insn.R0, insn.R4, rbLeft, 8)
	b.JmpReg(insn.JmpEq, insn.R0, insn.R3, "rdl-fx-l")
	emitDeleteArm(b, true) // x == parent->right
	b.Label("rdl-fx-l")
	emitDeleteArm(b, false) // x == parent->left

	b.Label("rdl-fix-done")
	b.JmpImm(insn.JmpEq, insn.R3, 0, "rdl-free")
	b.StoreImm(insn.R3, rbColor, 1, 8)
	b.Label("rdl-free")
	b.Load(insn.R1, insn.R10, -32, 8)
	b.Call(kernel.HelperKflexFree)
	b.Ret(RetFound)

	return b
}
