// Package ds implements the data-structure offloads of the paper's §5.2:
// a hash map, doubly linked list, red-black tree, skip list, and two
// network sketches (count-min and count sketch), each in two forms:
//
//   - a KFlex extension in bytecode, defining the structure entirely inside
//     the extension heap with kflex_malloc (the flexibility eBPF lacks);
//   - a native Go twin — the "KMod" baseline of Figure 5, i.e. the same
//     logic as unsafe kernel code with zero runtime overhead — which also
//     serves as the reference model for property-testing the bytecode.
//
// All structures map uint64 keys to uint64 values, matching the synthetic
// single-threaded workload of Figure 5.
package ds

import (
	"math/bits"
	"math/rand"
)

// Store is the common operation set benchmarked in Figure 5.
type Store interface {
	// Update inserts or overwrites key.
	Update(key, val uint64)
	// Lookup returns the value and whether the key exists.
	Lookup(key uint64) (uint64, bool)
	// Delete removes key, reporting whether it existed.
	Delete(key uint64) bool
}

// Kind names one of the offloaded data structures.
type Kind string

// The data structures of §5.2.
const (
	KindHashMap     Kind = "hashmap"
	KindLinkedList  Kind = "linkedlist"
	KindRBTree      Kind = "rbtree"
	KindSkipList    Kind = "skiplist"
	KindCountMin    Kind = "countmin"
	KindCountSketch Kind = "countsketch"
)

// KindZAdd is §5.2's sorted-set offload (zadd.go): the same hook and
// operation codes, but its native twin is a NativeZSet, not a Store, and it
// is not one of Figure 5's structures.
const KindZAdd Kind = "zadd"

// Kinds lists every structure in Figure 5's order.
var Kinds = []Kind{KindHashMap, KindRBTree, KindLinkedList, KindSkipList, KindCountMin, KindCountSketch}

// NewNative returns the native (KMod baseline) implementation of kind.
func NewNative(kind Kind) Store {
	switch kind {
	case KindHashMap:
		return newNativeHash()
	case KindLinkedList:
		return newNativeList()
	case KindRBTree:
		return newNativeRB()
	case KindSkipList:
		return newNativeSkip()
	case KindCountMin:
		return newNativeCountMin()
	case KindCountSketch:
		return newNativeCountSketch()
	}
	// Internal invariant: Kind values are package constants; an unknown one
	// cannot arrive from extension or workload input.
	panic("ds: unknown kind " + string(kind))
}

// hashMix is the Fibonacci multiplier both implementations hash with.
const hashMix = 0x9E3779B97F4A7C15

// NumBuckets is the hash map bucket count (shared with the bytecode twin).
const NumBuckets = 4096

// --- Hash map -----------------------------------------------------------------

type hashNode struct {
	key, val uint64
	next     *hashNode
}

type nativeHash struct {
	buckets [NumBuckets]*hashNode
}

func newNativeHash() *nativeHash { return &nativeHash{} }

func hashBucket(key uint64) uint64 {
	return (key * hashMix) >> 32 & (NumBuckets - 1)
}

func (h *nativeHash) Update(key, val uint64) {
	b := hashBucket(key)
	for n := h.buckets[b]; n != nil; n = n.next {
		if n.key == key {
			n.val = val
			return
		}
	}
	h.buckets[b] = &hashNode{key: key, val: val, next: h.buckets[b]}
}

func (h *nativeHash) Lookup(key uint64) (uint64, bool) {
	for n := h.buckets[hashBucket(key)]; n != nil; n = n.next {
		if n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

func (h *nativeHash) Delete(key uint64) bool {
	b := hashBucket(key)
	var prev *hashNode
	for n := h.buckets[b]; n != nil; n = n.next {
		if n.key == key {
			if prev == nil {
				h.buckets[b] = n.next
			} else {
				prev.next = n.next
			}
			return true
		}
		prev = n
	}
	return false
}

// --- Doubly linked list (Listing 1's structure) --------------------------------

type listNode struct {
	key, val   uint64
	next, prev *listNode
}

type nativeList struct {
	head *listNode
}

func newNativeList() *nativeList { return &nativeList{} }

// Update pushes a new node at the head — constant time, matching Figure
// 5's note ("linked list update is a constant time operation"). Duplicate
// keys shadow older entries: Lookup and Delete find the newest node first.
func (l *nativeList) Update(key, val uint64) {
	n := &listNode{key: key, val: val, next: l.head}
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
}

func (l *nativeList) Lookup(key uint64) (uint64, bool) {
	for n := l.head; n != nil; n = n.next {
		if n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

func (l *nativeList) Delete(key uint64) bool {
	for n := l.head; n != nil; n = n.next {
		if n.key != key {
			continue
		}
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			l.head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
		return true
	}
	return false
}

// --- Red-black tree -------------------------------------------------------------

const (
	red   = 0
	black = 1
)

type rbNode struct {
	key, val            uint64
	left, right, parent *rbNode
	color               uint8
}

type nativeRB struct {
	root *rbNode
}

func newNativeRB() *nativeRB { return &nativeRB{} }

func (t *nativeRB) Lookup(key uint64) (uint64, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	return 0, false
}

func (t *nativeRB) rotateLeft(x *rbNode) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *nativeRB) rotateRight(x *rbNode) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *nativeRB) Update(key, val uint64) {
	var parent *rbNode
	link := &t.root
	for *link != nil {
		parent = *link
		switch {
		case key < parent.key:
			link = &parent.left
		case key > parent.key:
			link = &parent.right
		default:
			parent.val = val
			return
		}
	}
	n := &rbNode{key: key, val: val, parent: parent, color: red}
	*link = n
	t.insertFix(n)
}

func (t *nativeRB) insertFix(z *rbNode) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			y := gp.right
			if y != nil && y.color == red {
				z.parent.color = black
				y.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			y := gp.left
			if y != nil && y.color == red {
				z.parent.color = black
				y.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func colorOf(n *rbNode) uint8 {
	if n == nil {
		return black
	}
	return n.color
}

func (t *nativeRB) transplant(u, v *rbNode) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *nativeRB) minimum(n *rbNode) *rbNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

func (t *nativeRB) Delete(key uint64) bool {
	z := t.root
	for z != nil && z.key != key {
		if key < z.key {
			z = z.left
		} else {
			z = z.right
		}
	}
	if z == nil {
		return false
	}
	y := z
	yColor := y.color
	var x, xParent *rbNode
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = t.minimum(z.right)
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.deleteFix(x, xParent)
	}
	return true
}

func (t *nativeRB) deleteFix(x, parent *rbNode) {
	for x != t.root && colorOf(x) == black {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if colorOf(w) == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if colorOf(w.left) == black && colorOf(w.right) == black {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if colorOf(w.right) == black {
				if w.left != nil {
					w.left.color = black
				}
				w.color = red
				t.rotateRight(w)
				w = parent.right
			}
			w.color = parent.color
			parent.color = black
			if w.right != nil {
				w.right.color = black
			}
			t.rotateLeft(parent)
			x = t.root
		} else {
			w := parent.left
			if colorOf(w) == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if colorOf(w.right) == black && colorOf(w.left) == black {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if colorOf(w.left) == black {
				if w.right != nil {
					w.right.color = black
				}
				w.color = red
				t.rotateLeft(w)
				w = parent.left
			}
			w.color = parent.color
			parent.color = black
			if w.left != nil {
				w.left.color = black
			}
			t.rotateRight(parent)
			x = t.root
		}
	}
	if x != nil {
		x.color = black
	}
}

// checkRB validates the red-black invariants; tests use it.
func (t *nativeRB) check() bool {
	if t.root == nil {
		return true
	}
	if t.root.color != black {
		return false
	}
	_, ok := blackHeight(t.root)
	return ok
}

func blackHeight(n *rbNode) (int, bool) {
	if n == nil {
		return 1, true
	}
	if n.color == red {
		if colorOf(n.left) == red || colorOf(n.right) == red {
			return 0, false
		}
	}
	lh, lok := blackHeight(n.left)
	rh, rok := blackHeight(n.right)
	if !lok || !rok || lh != rh {
		return 0, false
	}
	if n.color == black {
		lh++
	}
	return lh, true
}

// --- Skip list -----------------------------------------------------------------

// SkipMaxLevel bounds skip-list towers (shared with the bytecode twin).
const SkipMaxLevel = 16

type skipNode struct {
	key, val uint64
	next     [SkipMaxLevel]*skipNode
	level    int
}

type nativeSkip struct {
	head  *skipNode
	level int
	rng   *rand.Rand
}

func newNativeSkip() *nativeSkip {
	return &nativeSkip{head: &skipNode{level: SkipMaxLevel}, level: 1, rng: rand.New(rand.NewSource(1))}
}

func (s *nativeSkip) randomLevel() int {
	lvl := 1
	for s.rng.Uint32()&1 == 1 && lvl < SkipMaxLevel {
		lvl++
	}
	return lvl
}

func (s *nativeSkip) Update(key, val uint64) {
	var update [SkipMaxLevel]*skipNode
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	if n := x.next[0]; n != nil && n.key == key {
		n.val = val
		return
	}
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			update[i] = s.head
		}
		s.level = lvl
	}
	n := &skipNode{key: key, val: val, level: lvl}
	for i := 0; i < lvl; i++ {
		n.next[i] = update[i].next[i]
		update[i].next[i] = n
	}
}

func (s *nativeSkip) Lookup(key uint64) (uint64, bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	if n := x.next[0]; n != nil && n.key == key {
		return n.val, true
	}
	return 0, false
}

func (s *nativeSkip) Delete(key uint64) bool {
	var update [SkipMaxLevel]*skipNode
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	n := x.next[0]
	if n == nil || n.key != key {
		return false
	}
	for i := 0; i < n.level; i++ {
		if update[i].next[i] == n {
			update[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	return true
}

// --- Network sketches -----------------------------------------------------------

// Sketch geometry (shared with the bytecode twins). Rows×width is sized so
// every access offset stays within the SFI guard window, making sketch
// accesses statically safe — the paper notes all sketch accesses verify
// statically (Table 3 caption).
const (
	SketchRows  = 4
	SketchWidth = 64
)

// sketchHash derives the row-i index for key.
func sketchHash(key uint64, row int) uint64 {
	h := key*hashMix + uint64(row)*0xD1B54A32D192ED03
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	return (h >> 16) & (SketchWidth - 1)
}

// sketchSign derives a ±1 sign for the count sketch.
func sketchSign(key uint64, row int) int64 {
	h := key*0xC2B2AE3D27D4EB4F + uint64(row)*hashMix
	if bits.OnesCount64(h)&1 == 0 {
		return 1
	}
	return -1
}

// nativeCountMin implements the count-min sketch: Update adds val to each
// row's counter; Lookup returns the minimum (an overestimate); Delete
// subtracts (count-min supports decrements in the strict turnstile model).
type nativeCountMin struct {
	rows [SketchRows][SketchWidth]uint64
}

func newNativeCountMin() *nativeCountMin { return &nativeCountMin{} }

func (c *nativeCountMin) Update(key, val uint64) {
	for r := 0; r < SketchRows; r++ {
		c.rows[r][sketchHash(key, r)] += val
	}
}

func (c *nativeCountMin) Lookup(key uint64) (uint64, bool) {
	min := ^uint64(0)
	for r := 0; r < SketchRows; r++ {
		if v := c.rows[r][sketchHash(key, r)]; v < min {
			min = v
		}
	}
	return min, min != 0
}

func (c *nativeCountMin) Delete(key uint64) bool {
	for r := 0; r < SketchRows; r++ {
		c.rows[r][sketchHash(key, r)] = 0
	}
	return true
}

// nativeCountSketch implements the count sketch (signed updates, median
// estimate approximated by the signed row values).
type nativeCountSketch struct {
	rows [SketchRows][SketchWidth]int64
}

func newNativeCountSketch() *nativeCountSketch { return &nativeCountSketch{} }

func (c *nativeCountSketch) Update(key, val uint64) {
	for r := 0; r < SketchRows; r++ {
		c.rows[r][sketchHash(key, r)] += sketchSign(key, r) * int64(val)
	}
}

func (c *nativeCountSketch) Lookup(key uint64) (uint64, bool) {
	// Median of the four signed estimates; with an even count, take the
	// lower middle (both engines use the same rule).
	var est [SketchRows]int64
	for r := 0; r < SketchRows; r++ {
		est[r] = sketchSign(key, r) * c.rows[r][sketchHash(key, r)]
	}
	// Insertion sort (mirrors the bytecode's fixed 4-element network).
	for i := 1; i < SketchRows; i++ {
		for j := i; j > 0 && est[j] < est[j-1]; j-- {
			est[j], est[j-1] = est[j-1], est[j]
		}
	}
	v := est[(SketchRows-1)/2]
	return uint64(v), v != 0
}

func (c *nativeCountSketch) Delete(key uint64) bool {
	for r := 0; r < SketchRows; r++ {
		c.rows[r][sketchHash(key, r)] = 0
	}
	return true
}
