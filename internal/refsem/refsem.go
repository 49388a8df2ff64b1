// Package refsem is an executable reference semantics for Kie-instrumented
// KFlex bytecode: the oracle the lowered execution tier (internal/vm over
// internal/compile) is checked against. It is written from the eBPF ISA,
// Kie's four internal opcodes and the paper's runtime rules, and shares no
// code with what it checks:
//
//   - a guard computes (addr & (size-1)) + base, the sanitization equation
//     of §3.2, from the heap's size and base alone;
//   - heap bytes move only through heap.View's ReadInto and WriteFrom, and a
//     program access faults, before it moves anything, when it leaves the
//     heap, touches a page PageMapped reports unpopulated, or the heap is
//     closed (class-2 cancellation points, §3.3);
//   - a terminate probe counts itself, then fails once the invocation has
//     retired more instructions than its quantum (class-1 points, §3.3);
//     lock spins poll the same rule;
//   - a cancellation releases spin locks, then kernel objects, last first,
//     counts itself, retires the extension at the threshold, and returns
//     the hook's default code as the callback adjusts it (§3.3, §4.3);
//   - helpers are the kernel's own implementations, called with this
//     package's Machine as their kernel.Env.
//
// Abort PCs index the instrumented stream. Nothing here is fast: one
// instruction is decoded per step and every heap access copies bytes. Only
// tests import this package.
package refsem

import (
	"errors"
	"fmt"
	"math/bits"

	"kflex/insn"
	"kflex/internal/alloc"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/locks"
)

// The extension-visible address windows outside the heap. Programs see
// these addresses (R10, R1, a pinned map value's pointer), so they are part
// of the semantics.
const (
	stackVA   = 0xffffb00000000000
	ctxVA     = 0xffffb10000000000
	pinVA     = 0xffff990000000000
	pinStride = 1 << 12
	// StackSize is the extension stack frame, R10 pointing at its top.
	StackSize = 512
)

// Cancel names why an invocation was cancelled, as vm.CancelKind prints it.
type Cancel string

// The cancellation kinds a run without fault injection can produce.
const (
	None      Cancel = "none"
	Terminate Cancel = "terminate-probe"
	Fault     Cancel = "heap-fault"
	Lock      Cancel = "lock-spin"
)

// Stats is the architectural work of one invocation.
type Stats struct {
	Insns, Guards, GuardsRead, Probes, HelperCalls uint64
}

// Result is one completed invocation. PC is the instrumented-stream index of
// the instruction that observed the cancellation (0 when Cancelled is None).
type Result struct {
	Ret       uint64
	Cancelled Cancel
	PC        int
	Stats     Stats
}

// ErrRetired is returned by Run once cancellations reached the threshold.
var ErrRetired = errors.New("refsem: extension retired")

// Config is one loaded extension on one CPU.
type Config struct {
	// Prog is Kie's instrumented stream; Callback, if any, the verified
	// cancellation callback, run with R1 = the default return code.
	Prog, Callback []insn.Instruction
	Hook           *kernel.Hook
	Kernel         *kernel.Kernel
	// Heap is nil for an eBPF-mode program; Alloc and Lock back the
	// allocator and spin-lock helpers over it.
	Heap  *heap.Heap
	Alloc *alloc.Allocator
	Lock  *locks.Locks
	CPU   int
	// Quantum bounds an invocation's instructions (0: unbounded);
	// Threshold is the cancellation count that retires the extension.
	Quantum, Threshold uint64
}

type held struct {
	obj *kernel.Object
	ptr uint64
}

// Machine runs one extension. It is the kernel.Env of the helpers it calls.
type Machine struct {
	cfg     Config
	cb      *Machine
	hc      kernel.HelperCtx
	view    heap.View
	cancels uint64
	retired bool

	regs  [insn.NumRegs]uint64
	stack [StackSize]byte
	ctx   []byte
	pins  [][]byte
	held  []held
	locks []uint64
	xlat  uint64
	armed bool
	stats Stats
}

// abort is a cancellation observed at instrumented PC pc.
type abort struct {
	kind Cancel
	pc   int
}

func (a *abort) Error() string { return fmt.Sprintf("refsem: %s at insn %d", a.kind, a.pc) }

// New loads cfg. With a heap it maps page 0, which holds the globals, as
// the runtime does at load.
func New(cfg Config) (*Machine, error) {
	m := &Machine{cfg: cfg}
	m.hc = kernel.HelperCtx{Kernel: cfg.Kernel, CPU: cfg.CPU, Env: m}
	if h := cfg.Heap; h != nil {
		if err := h.Populate(0, 8); err != nil {
			return nil, err
		}
		m.view = h.ExtView()
		m.hc.Heap, m.hc.Alloc, m.hc.Lock = &m.view, cfg.Alloc, cfg.Lock
	}
	if cfg.Callback != nil {
		m.cb = &Machine{cfg: Config{Prog: cfg.Callback, Hook: cfg.Hook, Kernel: cfg.Kernel, CPU: cfg.CPU}}
		m.cb.hc = kernel.HelperCtx{Kernel: cfg.Kernel, CPU: cfg.CPU, Env: m.cb}
	}
	return m, nil
}

// Run invokes the extension on event with the hook context ctx.
func (m *Machine) Run(event any, ctx []byte) (Result, error) {
	if m.retired {
		return Result{}, ErrRetired
	}
	if len(ctx) != m.cfg.Hook.CtxSize {
		return Result{}, fmt.Errorf("refsem: ctx size %d, hook %s wants %d", len(ctx), m.cfg.Hook.Name, m.cfg.Hook.CtxSize)
	}
	m.ctx, m.hc.Event = ctx, event
	ret, err := m.exec(ctxVA)
	var a *abort
	switch {
	case err == nil && len(m.held)+len(m.locks) == 0:
		return Result{Ret: ret, Cancelled: None, Stats: m.stats}, nil
	case err == nil:
		err = fmt.Errorf("refsem: %d references and %d locks held at exit", len(m.held), len(m.locks))
	case errors.As(err, &a):
		m.unwind()
		if m.cancels++; m.cancels >= m.cfg.Threshold {
			m.retired = true
		}
		ret = m.cfg.Hook.DefaultRet
		if m.cb != nil {
			if r, err := m.cb.exec(ret); err == nil {
				ret = r
			}
		}
		return Result{Ret: ret, Cancelled: a.kind, PC: a.pc, Stats: m.stats}, nil
	}
	m.unwind()
	return Result{}, err
}

// unwind releases what the invocation still holds: spin locks, then kernel
// objects, each last acquired first.
func (m *Machine) unwind() {
	for i := len(m.locks) - 1; i >= 0; i-- {
		_ = m.cfg.Lock.Unlock(m.locks[i])
	}
	for i := len(m.held) - 1; i >= 0; i-- {
		m.held[i].obj.Put()
	}
	m.locks, m.held = m.locks[:0], m.held[:0]
}

// exec runs the program from pc 0 with R1 = r1 and a fresh invocation state.
func (m *Machine) exec(r1 uint64) (uint64, error) {
	m.held, m.locks, m.pins = m.held[:0], m.locks[:0], m.pins[:0]
	m.armed, m.stats = false, Stats{}
	m.regs[insn.R1], m.regs[insn.R10] = r1, stackVA+StackSize
	prog, r := m.cfg.Prog, &m.regs
	for pc := 0; ; {
		if pc < 0 || pc >= len(prog) {
			return 0, fmt.Errorf("refsem: pc %d out of program", pc)
		}
		ins := prog[pc]
		op := ins.Op
		m.stats.Insns++
		next := pc + 1
		switch cls := op.Class(); {
		case op == insn.OpGuard || op == insn.OpGuardRd:
			r[ins.Dst] = m.guard(r[ins.Dst], false)
			m.stats.Guards++
			if op == insn.OpGuardRd {
				m.stats.GuardsRead++
			}
		case op == insn.OpXlat:
			m.xlat, m.armed = m.guard(r[ins.Dst], true), true
		case op == insn.OpProbe:
			if err := m.probe(pc); err != nil {
				return 0, err
			}
		case cls == insn.ClassALU64 || cls == insn.ClassALU:
			if err := m.alu(ins, cls == insn.ClassALU64); err != nil {
				return 0, fmt.Errorf("refsem: insn %d: %w", pc, err)
			}
		case cls == insn.ClassLD:
			if !ins.IsLoadImm64() {
				return 0, fmt.Errorf("refsem: insn %d: unsupported LD mode", pc)
			}
			r[ins.Dst] = ins.Imm64
		case cls == insn.ClassLDX:
			v, err := m.load(r[ins.Src]+uint64(int64(ins.Off)), op.SizeBytes())
			if err != nil {
				return 0, m.fault(pc, err)
			}
			r[ins.Dst] = v
		case cls == insn.ClassST:
			if err := m.store(r[ins.Dst]+uint64(int64(ins.Off)), op.SizeBytes(), uint64(int64(ins.Imm))); err != nil {
				return 0, m.fault(pc, err)
			}
		case cls == insn.ClassSTX && op.Mode() == insn.ModeATOMIC:
			if err := m.atomic(pc, ins, r[ins.Dst]+uint64(int64(ins.Off)), op.SizeBytes()); err != nil {
				return 0, err
			}
		case cls == insn.ClassSTX:
			val := r[ins.Src]
			if m.armed {
				val, m.armed = m.xlat, false
			}
			if err := m.store(r[ins.Dst]+uint64(int64(ins.Off)), op.SizeBytes(), val); err != nil {
				return 0, m.fault(pc, err)
			}
		case cls == insn.ClassJMP && op.JmpOp() == insn.JmpExit:
			return r[insn.R0], nil
		case cls == insn.ClassJMP && op.JmpOp() == insn.JmpCall:
			if err := m.call(pc, ins.Imm); err != nil {
				return 0, err
			}
		case cls == insn.ClassJMP && op.JmpOp() == insn.JmpA:
			next += int(ins.Off)
		default: // a conditional jump, 64-bit (JMP) or 32-bit (JMP32)
			src := r[ins.Src]
			if op.UsesImm() {
				src = uint64(int64(ins.Imm))
			}
			if taken(op.JmpOp(), r[ins.Dst], src, cls == insn.ClassJMP) {
				next += int(ins.Off)
			}
		}
		pc = next
	}
}

// guard folds v into the heap's extension mapping, or its user mapping for
// a translate-on-store (§3.4): §3.2's (addr & mask) + base, mask = size-1.
// Without a heap every pointer folds to 0.
func (m *Machine) guard(v uint64, user bool) uint64 {
	h := m.cfg.Heap
	switch {
	case h == nil:
		return 0
	case user:
		return v&(h.Size()-1) + h.UserBase()
	}
	return v&(h.Size()-1) + h.ExtBase()
}

// probe is a terminate probe at pc.
func (m *Machine) probe(pc int) error {
	m.stats.Probes++
	if m.Cancelled() {
		return &abort{Terminate, pc}
	}
	return nil
}

// alu executes an ALU or ALU64 instruction. A 32-bit result is
// zero-extended; byte swaps act on the whole register in both classes.
func (m *Machine) alu(ins insn.Instruction, is64 bool) error {
	d, s := m.regs[ins.Dst], m.regs[ins.Src]
	if ins.Op.UsesImm() {
		s = uint64(int64(ins.Imm))
	}
	op := ins.Op.AluOp()
	if op == insn.AluEnd {
		switch ins.Imm {
		case 16:
			m.regs[ins.Dst] = uint64(bits.ReverseBytes16(uint16(d)))
		case 32:
			m.regs[ins.Dst] = uint64(bits.ReverseBytes32(uint32(d)))
		default:
			m.regs[ins.Dst] = bits.ReverseBytes64(d)
		}
		return nil
	}
	width, sign := uint64(63), 64
	if !is64 {
		d, s, width, sign = uint64(uint32(d)), uint64(uint32(s)), 31, 32
	}
	var v uint64
	switch op {
	case insn.AluAdd:
		v = d + s
	case insn.AluSub:
		v = d - s
	case insn.AluMul:
		v = d * s
	case insn.AluDiv:
		if s != 0 {
			v = d / s
		}
	case insn.AluMod:
		v = d
		if s != 0 {
			v = d % s
		}
	case insn.AluOr:
		v = d | s
	case insn.AluAnd:
		v = d & s
	case insn.AluXor:
		v = d ^ s
	case insn.AluLsh:
		v = d << (s & width)
	case insn.AluRsh:
		v = d >> (s & width)
	case insn.AluArsh:
		// Sign-extend from the operation width, shift, truncate below.
		v = uint64(int64(d<<(64-sign)) >> (64 - sign) >> (s & width))
	case insn.AluNeg:
		v = -d
	case insn.AluMov:
		v = s
	default:
		return fmt.Errorf("bad ALU op %#x", uint8(ins.Op))
	}
	if !is64 {
		v = uint64(uint32(v))
	}
	m.regs[ins.Dst] = v
	return nil
}

// taken evaluates a conditional jump; an opcode that names no condition
// (JA, CALL or EXIT in the JMP32 class) is never taken.
func taken(op uint8, d, s uint64, is64 bool) bool {
	sd, ss := int64(d), int64(s)
	if !is64 {
		d, s = uint64(uint32(d)), uint64(uint32(s))
		sd, ss = int64(int32(d)), int64(int32(s))
	}
	switch op {
	case insn.JmpEq:
		return d == s
	case insn.JmpNe:
		return d != s
	case insn.JmpGt:
		return d > s
	case insn.JmpGe:
		return d >= s
	case insn.JmpLt:
		return d < s
	case insn.JmpLe:
		return d <= s
	case insn.JmpSet:
		return d&s != 0
	case insn.JmpSgt:
		return sd > ss
	case insn.JmpSge:
		return sd >= ss
	case insn.JmpSlt:
		return sd < ss
	case insn.JmpSle:
		return sd <= ss
	}
	return false
}

// call runs helper id with R1-R5 as its arguments and its result in R0.
func (m *Machine) call(pc int, id int32) error {
	spec, ok := m.cfg.Kernel.Helpers.Lookup(id)
	if !ok {
		return fmt.Errorf("refsem: insn %d: unknown helper %d", pc, id)
	}
	m.stats.HelperCalls++
	r := &m.regs
	ret, err := spec.Impl(&m.hc, [5]uint64{r[1], r[2], r[3], r[4], r[5]})
	if errors.Is(err, kernel.ErrCancelledInLock) {
		return &abort{Lock, pc}
	}
	if err != nil {
		return m.fault(pc, err)
	}
	r[insn.R0] = ret
	return nil
}

// fault turns a heap fault into a cancellation when the program has a heap;
// any other failed access is an error of the run.
func (m *Machine) fault(pc int, err error) error {
	var f *heap.Fault
	if errors.As(err, &f) && m.cfg.Heap != nil {
		return &abort{Fault, pc}
	}
	return fmt.Errorf("refsem: insn %d: %w", pc, err)
}

// inHeap reports whether addr lies in the extension mapping of the heap.
func (m *Machine) inHeap(addr uint64) bool {
	h := m.cfg.Heap
	return h != nil && addr-h.ExtBase() < h.Size()
}

// heapCheck validates an n-byte program access at heap address addr: inside
// the heap, on populated pages, of an open heap.
func (m *Machine) heapCheck(addr uint64, n int) error {
	h := m.cfg.Heap
	off := addr - h.ExtBase()
	if h.Closed() {
		return &heap.Fault{Addr: addr, Kind: heap.FaultClosed}
	}
	if off+uint64(n) > h.Size() {
		return &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
	}
	for p := off &^ (heap.PageSize - 1); p < off+uint64(n); p += heap.PageSize {
		if !h.PageMapped(p) {
			return &heap.Fault{Addr: addr, Kind: heap.FaultUnmapped}
		}
	}
	return nil
}

// window returns the n bytes at addr in the stack frame, the hook context
// or a pinned map value; nil, nil when addr is in none of them. A span that
// starts in one and runs past its end is an error.
func (m *Machine) window(addr uint64, n int) ([]byte, error) {
	var buf []byte
	var off uint64
	switch {
	case addr-stackVA < StackSize:
		buf, off = m.stack[:], addr-stackVA
	case addr-ctxVA < uint64(len(m.ctx)):
		buf, off = m.ctx, addr-ctxVA
	case addr >= pinVA && (addr-pinVA)/pinStride < uint64(len(m.pins)):
		buf, off = m.pins[(addr-pinVA)/pinStride], (addr-pinVA)%pinStride
	default:
		return nil, nil
	}
	if off+uint64(n) > uint64(len(buf)) {
		return nil, fmt.Errorf("access of %d bytes at %#x leaves its region", n, addr)
	}
	return buf[off : off+uint64(n)], nil
}

// load reads a little-endian n-byte value for the program. The kernel
// object window reads as zero; any other address outside every region is a
// wild access and faults.
func (m *Machine) load(addr uint64, n int) (uint64, error) {
	var b [8]byte
	if m.inHeap(addr) {
		if err := m.heapCheck(addr, n); err != nil {
			return 0, err
		}
		err := m.view.ReadInto(addr, b[:n])
		return le(b[:n]), err
	}
	w, err := m.window(addr, n)
	switch {
	case err != nil:
		return 0, err
	case w != nil:
		return le(w), nil
	case addr >= kernel.ObjVABase:
		return 0, nil
	}
	return 0, &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
}

// store writes the low n bytes of v, little-endian, for the program.
func (m *Machine) store(addr uint64, n int, v uint64) error {
	var b [8]byte
	for i := range n {
		b[i] = byte(v >> (8 * i))
	}
	if m.inHeap(addr) {
		if err := m.heapCheck(addr, n); err != nil {
			return err
		}
		return m.view.WriteFrom(addr, b[:n])
	}
	w, err := m.window(addr, n)
	if w != nil {
		copy(w, b[:n])
	}
	if w == nil && err == nil {
		err = &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
	}
	return err
}

func le(b []byte) uint64 {
	var v uint64
	for i, c := range b {
		v |= uint64(c) << (8 * i)
	}
	return v
}

// atomic executes an atomic read-modify-write of n bytes at addr. In the
// heap it must be a naturally aligned 4- or 8-byte word.
func (m *Machine) atomic(pc int, ins insn.Instruction, addr uint64, n int) error {
	if m.inHeap(addr) && (n != 4 && n != 8 || addr%uint64(n) != 0) {
		return m.fault(pc, &heap.Fault{Addr: addr, Kind: heap.FaultUnaligned})
	}
	old, err := m.load(addr, n)
	if err != nil {
		return m.fault(pc, err)
	}
	mask := ^uint64(0) >> (64 - 8*n)
	src, nw := m.regs[ins.Src], old
	switch ins.Imm {
	case insn.AtomicAdd, insn.AtomicAdd | insn.AtomicFetch:
		nw = old + src
	case insn.AtomicOr, insn.AtomicOr | insn.AtomicFetch:
		nw = old | src
	case insn.AtomicAnd, insn.AtomicAnd | insn.AtomicFetch:
		nw = old & src
	case insn.AtomicXor, insn.AtomicXor | insn.AtomicFetch:
		nw = old ^ src
	case insn.AtomicXchg:
		nw = src
	case insn.AtomicCmpXchg:
		if old == m.regs[insn.R0]&mask {
			nw = src
		}
	default:
		return fmt.Errorf("refsem: insn %d: unknown atomic %#x", pc, ins.Imm)
	}
	if err := m.store(addr, n, nw); err != nil {
		return m.fault(pc, err)
	}
	switch {
	case ins.Imm == insn.AtomicCmpXchg:
		m.regs[insn.R0] = old
	case ins.Imm&insn.AtomicFetch != 0:
		m.regs[ins.Src] = old
	}
	return nil
}

// Hold implements kernel.Env.
func (m *Machine) Hold(obj *kernel.Object, ptr uint64) { m.held = append(m.held, held{obj, ptr}) }

// Unhold implements kernel.Env.
func (m *Machine) Unhold(ptr uint64) *kernel.Object {
	for i := len(m.held) - 1; i >= 0; i-- {
		if m.held[i].ptr == ptr {
			obj := m.held[i].obj
			m.held = append(m.held[:i], m.held[i+1:]...)
			return obj
		}
	}
	return nil
}

// HoldLock implements kernel.Env.
func (m *Machine) HoldLock(addr uint64) { m.locks = append(m.locks, addr) }

// ReleaseLock implements kernel.Env.
func (m *Machine) ReleaseLock(addr uint64) {
	for i := len(m.locks) - 1; i >= 0; i-- {
		if m.locks[i] == addr {
			m.locks = append(m.locks[:i], m.locks[i+1:]...)
			return
		}
	}
}

// PinValue implements kernel.Env.
func (m *Machine) PinValue(val []byte) uint64 {
	m.pins = append(m.pins, val)
	return pinVA + uint64(len(m.pins)-1)*pinStride
}

// Cancelled implements kernel.Env: the stop rule of probes and lock spins.
func (m *Machine) Cancelled() bool {
	q := m.cfg.Quantum
	return q > 0 && m.stats.Insns > q
}

// Read implements kernel.Env. A heap span copies its accessible prefix and
// reports the first byte it could not reach.
func (m *Machine) Read(dst []byte, addr uint64) error {
	if len(dst) == 0 {
		return nil
	}
	if m.inHeap(addr) {
		return m.view.ReadInto(addr, dst)
	}
	w, err := m.window(addr, len(dst))
	switch {
	case err != nil:
		return err
	case w != nil:
		copy(dst, w)
	case addr >= kernel.ObjVABase:
		clear(dst)
	default:
		return &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
	}
	return nil
}

// Write implements kernel.Env, with Read's contract.
func (m *Machine) Write(addr uint64, src []byte) error {
	if len(src) == 0 {
		return nil
	}
	if m.inHeap(addr) {
		return m.view.WriteFrom(addr, src)
	}
	w, err := m.window(addr, len(src))
	if w != nil {
		copy(w, src)
	}
	if w == nil && err == nil {
		err = &heap.Fault{Addr: addr, Kind: heap.FaultOOB}
	}
	return err
}

// DiffHeaps compares two heaps of one size page by page: which pages are
// populated, and the bytes of each populated one. It returns nil when they
// hold the same image, and otherwise names the first page that differs.
func DiffHeaps(a, b *heap.Heap) error {
	if a.Size() != b.Size() {
		return fmt.Errorf("heap sizes %d and %d", a.Size(), b.Size())
	}
	pa, pb := make([]byte, heap.PageSize), make([]byte, heap.PageSize)
	for off := uint64(0); off < a.Size(); off += heap.PageSize {
		mapped := a.PageMapped(off)
		if mapped != b.PageMapped(off) {
			return fmt.Errorf("page at %#x: populated %v and %v", off, mapped, !mapped)
		}
		if !mapped {
			continue
		}
		if err := errors.Join(a.ExtView().ReadInto(a.ExtBase()+off, pa), b.ExtView().ReadInto(b.ExtBase()+off, pb)); err != nil {
			return err
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return fmt.Errorf("heap byte at %#x: %#02x and %#02x", off+uint64(i), pa[i], pb[i])
			}
		}
	}
	return nil
}
