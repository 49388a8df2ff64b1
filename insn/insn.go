// Package insn defines the KFlex instruction set: a register-based bytecode
// compatible with the eBPF ISA (the paper retains eBPF's instruction set,
// §3), extended with four internal opcodes emitted by the Kie
// instrumentation engine and lowered natively by the VM.
//
// Instructions use the classic eBPF 8-byte layout:
//
//	opcode:8  dst_reg:4 src_reg:4  off:16  imm:32
//
// with a second slot carrying the high 32 immediate bits for LDDW.
package insn

import "fmt"

// Reg identifies one of the eleven architectural registers.
//
// R0 holds return values, R1–R5 are argument/caller-saved registers,
// R6–R9 are callee-saved, and R10 is the read-only frame pointer.
type Reg uint8

// Architectural registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10     // frame pointer, read-only
	NumRegs = 11
)

// String returns the conventional rN spelling.
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Instruction classes (low three opcode bits).
const (
	ClassLD    = 0x00
	ClassLDX   = 0x01
	ClassST    = 0x02
	ClassSTX   = 0x03
	ClassALU   = 0x04
	ClassJMP   = 0x05
	ClassJMP32 = 0x06
	ClassALU64 = 0x07
)

// Source-operand flag (bit 3): K selects the immediate, X the source register.
const (
	SrcK = 0x00
	SrcX = 0x08
)

// ALU operation bits (high nibble) for ClassALU/ClassALU64.
const (
	AluAdd  = 0x00
	AluSub  = 0x10
	AluMul  = 0x20
	AluDiv  = 0x30
	AluOr   = 0x40
	AluAnd  = 0x50
	AluLsh  = 0x60
	AluRsh  = 0x70
	AluNeg  = 0x80
	AluMod  = 0x90
	AluXor  = 0xa0
	AluMov  = 0xb0
	AluArsh = 0xc0
	AluEnd  = 0xd0
)

// Jump operation bits (high nibble) for ClassJMP/ClassJMP32.
const (
	JmpA    = 0x00
	JmpEq   = 0x10
	JmpGt   = 0x20
	JmpGe   = 0x30
	JmpSet  = 0x40
	JmpNe   = 0x50
	JmpSgt  = 0x60
	JmpSge  = 0x70
	JmpCall = 0x80
	JmpExit = 0x90
	JmpLt   = 0xa0
	JmpLe   = 0xb0
	JmpSlt  = 0xc0
	JmpSle  = 0xd0
)

// Size bits (bits 3–4) for load/store classes.
const (
	SizeW  = 0x00 // 4 bytes
	SizeH  = 0x08 // 2 bytes
	SizeB  = 0x10 // 1 byte
	SizeDW = 0x18 // 8 bytes
)

// Mode bits (high three bits) for load/store classes.
const (
	ModeIMM    = 0x00
	ModeMEM    = 0x60
	ModeATOMIC = 0xc0
)

// Atomic operation encodings carried in the immediate of an
// atomic STX instruction.
const (
	AtomicAdd     = AluAdd
	AtomicOr      = AluOr
	AtomicAnd     = AluAnd
	AtomicXor     = AluXor
	AtomicFetch   = 0x01
	AtomicXchg    = 0xe0 | AtomicFetch
	AtomicCmpXchg = 0xf0 | AtomicFetch
)

// Opcode is the 8-bit eBPF opcode byte.
type Opcode uint8

// Internal opcodes emitted by the Kie instrumentation engine. They occupy
// ALU64 operation slots (0xe0, 0xf0) that the eBPF ISA leaves unassigned, so
// they can never collide with verifier-accepted input programs.
const (
	// OpGuard sanitizes the heap address in Dst:
	// dst = (dst & heap_mask) + heap_base. Emitted before writes (and
	// before the reads of a shared heap).
	OpGuard Opcode = ClassALU64 | 0xe0 | SrcK
	// OpGuardRd is the read-access variant of OpGuard; Kie does not emit it
	// for a program loaded in performance mode (§3.2).
	OpGuardRd Opcode = ClassALU64 | 0xe0 | SrcX
	// OpProbe is the *terminate probe inserted at the back edge of
	// unbounded loops (§3.3): the VM checks the invocation's stop rule.
	// Imm carries the cancellation-point ID so a fault can be attributed to
	// its object table.
	OpProbe Opcode = ClassALU64 | 0xf0 | SrcK
	// OpXlat translates the extension-VA heap pointer in Dst into the
	// user-space mapping's VA prior to a store (translate-on-store, §3.4).
	OpXlat Opcode = ClassALU64 | 0xf0 | SrcX
)

// Class extracts the instruction class bits.
func (op Opcode) Class() uint8 { return uint8(op) & 0x07 }

// AluOp extracts the ALU operation bits.
func (op Opcode) AluOp() uint8 { return uint8(op) & 0xf0 }

// JmpOp extracts the jump operation bits.
func (op Opcode) JmpOp() uint8 { return uint8(op) & 0xf0 }

// Size extracts the access size bits of a load/store opcode.
func (op Opcode) Size() uint8 { return uint8(op) & 0x18 }

// Mode extracts the mode bits of a load/store opcode.
func (op Opcode) Mode() uint8 { return uint8(op) & 0xe0 }

// UsesImm reports whether the second operand is the immediate (K form).
func (op Opcode) UsesImm() bool { return uint8(op)&SrcX == 0 }

// IsInternal reports whether op is one of Kie's internal opcodes.
func (op Opcode) IsInternal() bool {
	return op == OpGuard || op == OpGuardRd || op == OpProbe || op == OpXlat
}

// SizeBytes returns the byte width selected by a load/store opcode.
func (op Opcode) SizeBytes() int {
	switch op.Size() {
	case SizeB:
		return 1
	case SizeH:
		return 2
	case SizeW:
		return 4
	default:
		return 8
	}
}

// SizeOf returns the opcode size bits for an access of n bytes.
func SizeOf(n int) uint8 {
	switch n {
	case 1:
		return SizeB
	case 2:
		return SizeH
	case 4:
		return SizeW
	case 8:
		return SizeDW
	}
	// Internal invariant: callers pass compile-time access widths (asm
	// builders, instrumentation); decoded programs never reach here.
	panic(fmt.Sprintf("insn: invalid access size %d", n))
}

// Instruction is one decoded bytecode instruction.
type Instruction struct {
	Op  Opcode
	Dst Reg
	Src Reg
	Off int16
	Imm int32

	// Imm64 carries the full 64-bit constant of an LDDW instruction
	// (Op == LoadImm64). When encoded, it occupies two 8-byte slots.
	Imm64 uint64
}

// LoadImm64 is the opcode of the two-slot 64-bit immediate load.
const LoadImm64 Opcode = ClassLD | ModeIMM | SizeDW

// IsLoadImm64 reports whether ins is the two-slot LDDW form.
func (ins Instruction) IsLoadImm64() bool { return ins.Op == LoadImm64 }

// Slots returns the number of encoding slots the instruction occupies.
func (ins Instruction) Slots() int {
	if ins.IsLoadImm64() {
		return 2
	}
	return 1
}

// --- Constructors -----------------------------------------------------------

// Mov64Reg returns dst = src.
func Mov64Reg(dst, src Reg) Instruction {
	return Instruction{Op: ClassALU64 | AluMov | SrcX, Dst: dst, Src: src}
}

// Mov64Imm returns dst = imm (sign-extended to 64 bits).
func Mov64Imm(dst Reg, imm int32) Instruction {
	return Instruction{Op: ClassALU64 | AluMov | SrcK, Dst: dst, Imm: imm}
}

// Mov32Reg returns w(dst) = w(src), zero-extending the upper half.
func Mov32Reg(dst, src Reg) Instruction {
	return Instruction{Op: ClassALU | AluMov | SrcX, Dst: dst, Src: src}
}

// Alu64Reg returns dst = dst <op> src over 64 bits.
func Alu64Reg(op uint8, dst, src Reg) Instruction {
	return Instruction{Op: Opcode(ClassALU64 | op | SrcX), Dst: dst, Src: src}
}

// Alu64Imm returns dst = dst <op> imm over 64 bits.
func Alu64Imm(op uint8, dst Reg, imm int32) Instruction {
	return Instruction{Op: Opcode(ClassALU64 | op | SrcK), Dst: dst, Imm: imm}
}

// Alu32Reg returns w(dst) = w(dst) <op> w(src).
func Alu32Reg(op uint8, dst, src Reg) Instruction {
	return Instruction{Op: Opcode(ClassALU | op | SrcX), Dst: dst, Src: src}
}

// Alu32Imm returns w(dst) = w(dst) <op> imm.
func Alu32Imm(op uint8, dst Reg, imm int32) Instruction {
	return Instruction{Op: Opcode(ClassALU | op | SrcK), Dst: dst, Imm: imm}
}

// Neg64 returns dst = -dst.
func Neg64(dst Reg) Instruction {
	return Instruction{Op: ClassALU64 | AluNeg, Dst: dst}
}

// LoadMem returns dst = *(size*)(src + off).
func LoadMem(dst, src Reg, off int16, size int) Instruction {
	return Instruction{Op: Opcode(ClassLDX | ModeMEM | SizeOf(size)), Dst: dst, Src: src, Off: off}
}

// StoreMem returns *(size*)(dst + off) = src.
func StoreMem(dst Reg, off int16, src Reg, size int) Instruction {
	return Instruction{Op: Opcode(ClassSTX | ModeMEM | SizeOf(size)), Dst: dst, Src: src, Off: off}
}

// StoreImm returns *(size*)(dst + off) = imm.
func StoreImm(dst Reg, off int16, imm int32, size int) Instruction {
	return Instruction{Op: Opcode(ClassST | ModeMEM | SizeOf(size)), Dst: dst, Off: off, Imm: imm}
}

// Atomic returns an atomic read-modify-write: op is one of the Atomic*
// constants, applied at *(size*)(dst + off) with operand src.
func Atomic(op int32, dst Reg, off int16, src Reg, size int) Instruction {
	return Instruction{Op: Opcode(ClassSTX | ModeATOMIC | SizeOf(size)), Dst: dst, Src: src, Off: off, Imm: op}
}

// LoadImm returns the two-slot dst = imm64 instruction.
func LoadImm(dst Reg, imm uint64) Instruction {
	return Instruction{Op: LoadImm64, Dst: dst, Imm64: imm, Imm: int32(uint32(imm))}
}

// Ja returns an unconditional branch by off instructions.
func Ja(off int16) Instruction {
	return Instruction{Op: ClassJMP | JmpA, Off: off}
}

// JmpReg returns if dst <op> src goto +off (64-bit compare).
func JmpReg(op uint8, dst, src Reg, off int16) Instruction {
	return Instruction{Op: Opcode(ClassJMP | op | SrcX), Dst: dst, Src: src, Off: off}
}

// JmpImm returns if dst <op> imm goto +off (64-bit compare).
func JmpImm(op uint8, dst Reg, imm int32, off int16) Instruction {
	return Instruction{Op: Opcode(ClassJMP | op | SrcK), Dst: dst, Imm: imm, Off: off}
}

// Jmp32Reg returns if w(dst) <op> w(src) goto +off.
func Jmp32Reg(op uint8, dst, src Reg, off int16) Instruction {
	return Instruction{Op: Opcode(ClassJMP32 | op | SrcX), Dst: dst, Src: src, Off: off}
}

// Jmp32Imm returns if w(dst) <op> imm goto +off.
func Jmp32Imm(op uint8, dst Reg, imm int32, off int16) Instruction {
	return Instruction{Op: Opcode(ClassJMP32 | op | SrcK), Dst: dst, Imm: imm, Off: off}
}

// Call returns a helper-function call by helper ID.
func Call(helper int32) Instruction {
	return Instruction{Op: ClassJMP | JmpCall, Imm: helper}
}

// Exit returns the program-exit instruction.
func Exit() Instruction {
	return Instruction{Op: ClassJMP | JmpExit}
}

// Guard returns Kie's write-path sanitization of register r.
func Guard(r Reg) Instruction { return Instruction{Op: OpGuard, Dst: r} }

// GuardRd returns Kie's read-path sanitization of register r.
func GuardRd(r Reg) Instruction { return Instruction{Op: OpGuardRd, Dst: r} }

// Probe returns the terminate probe for cancellation point cp.
func Probe(cp int32) Instruction { return Instruction{Op: OpProbe, Imm: cp} }

// Xlat returns translate-on-store of the heap pointer in r.
func Xlat(r Reg) Instruction { return Instruction{Op: OpXlat, Dst: r} }

// IsJump reports whether ins transfers control (excluding CALL and EXIT).
func (ins Instruction) IsJump() bool {
	cls := ins.Op.Class()
	if cls != ClassJMP && cls != ClassJMP32 {
		return false
	}
	op := ins.Op.JmpOp()
	return op != JmpCall && op != JmpExit
}

// IsCond reports whether ins is a conditional branch.
func (ins Instruction) IsCond() bool {
	return ins.IsJump() && ins.Op.JmpOp() != JmpA
}

// IsExit reports whether ins is EXIT.
func (ins Instruction) IsExit() bool {
	return ins.Op.Class() == ClassJMP && ins.Op.JmpOp() == JmpExit
}

// IsCall reports whether ins is a helper call.
func (ins Instruction) IsCall() bool {
	return ins.Op.Class() == ClassJMP && ins.Op.JmpOp() == JmpCall
}
