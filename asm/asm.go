// Package asm provides a label-based assembler for building KFlex extension
// programs in Go source. It is the moral equivalent of writing an extension
// in C and compiling it to eBPF bytecode: developers using the real system
// keep their language and toolchain (§2.1 practicality); here the Builder
// plays the role of that toolchain for test programs and offloads.
//
// The Builder records instructions along with symbolic branch targets and
// resolves them to relative offsets during Assemble. All emit methods return
// the Builder so call sites can chain, and errors are latched: the first
// problem is reported by Assemble, keeping program text free of error
// plumbing.
package asm

import (
	"fmt"
	"strconv"

	"kflex/insn"
)

// Builder accumulates instructions and labels for one extension program.
type Builder struct {
	items  []item
	labels map[string]int
	scopes int
	err    error
}

type item struct {
	ins    insn.Instruction
	target string // non-empty for label-relative branches
}

// New returns an empty Builder.
func New() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// Label binds name to the next emitted instruction.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		if b.err == nil {
			b.err = fmt.Errorf("asm: duplicate label %q", name)
		}
		return b
	}
	b.labels[name] = len(b.items)
	return b
}

// Scope returns a namer for the labels of one expansion of a fragment that a
// program emits more than once: it appends a number drawn from this Builder
// to every base name, so two expansions never collide and two Builders given
// the same calls name the same labels.
func (b *Builder) Scope() func(string) string {
	b.scopes++
	suffix := "#" + strconv.Itoa(b.scopes)
	return func(base string) string { return base + suffix }
}

// I emits a raw instruction.
func (b *Builder) I(ins insn.Instruction) *Builder {
	b.items = append(b.items, item{ins: ins})
	return b
}

// branch emits ins with its Off patched to reach label at assembly time.
func (b *Builder) branch(ins insn.Instruction, label string) *Builder {
	b.items = append(b.items, item{ins: ins, target: label})
	return b
}

// Ja emits an unconditional branch to label.
func (b *Builder) Ja(label string) *Builder {
	return b.branch(insn.Ja(0), label)
}

// JmpImm emits "if dst <op> imm goto label" (64-bit compare).
func (b *Builder) JmpImm(op uint8, dst insn.Reg, imm int32, label string) *Builder {
	return b.branch(insn.JmpImm(op, dst, imm, 0), label)
}

// JmpReg emits "if dst <op> src goto label" (64-bit compare).
func (b *Builder) JmpReg(op uint8, dst, src insn.Reg, label string) *Builder {
	return b.branch(insn.JmpReg(op, dst, src, 0), label)
}

// Jmp32Imm emits "if w(dst) <op> imm goto label".
func (b *Builder) Jmp32Imm(op uint8, dst insn.Reg, imm int32, label string) *Builder {
	return b.branch(insn.Jmp32Imm(op, dst, imm, 0), label)
}

// Jmp32Reg emits "if w(dst) <op> w(src) goto label".
func (b *Builder) Jmp32Reg(op uint8, dst, src insn.Reg, label string) *Builder {
	return b.branch(insn.Jmp32Reg(op, dst, src, 0), label)
}

// MovImm loads a 64-bit constant, choosing the single-slot sign-extended
// form when it fits.
func (b *Builder) MovImm(dst insn.Reg, v int64) *Builder {
	if v == int64(int32(v)) {
		return b.I(insn.Mov64Imm(dst, int32(v)))
	}
	return b.I(insn.LoadImm(dst, uint64(v)))
}

// Mov emits dst = src.
func (b *Builder) Mov(dst, src insn.Reg) *Builder { return b.I(insn.Mov64Reg(dst, src)) }

// Add emits dst += imm.
func (b *Builder) Add(dst insn.Reg, imm int32) *Builder {
	return b.I(insn.Alu64Imm(insn.AluAdd, dst, imm))
}

// AddReg emits dst += src.
func (b *Builder) AddReg(dst, src insn.Reg) *Builder {
	return b.I(insn.Alu64Reg(insn.AluAdd, dst, src))
}

// Load emits dst = *(size*)(src + off).
func (b *Builder) Load(dst, src insn.Reg, off int16, size int) *Builder {
	return b.I(insn.LoadMem(dst, src, off, size))
}

// Store emits *(size*)(dst + off) = src.
func (b *Builder) Store(dst insn.Reg, off int16, src insn.Reg, size int) *Builder {
	return b.I(insn.StoreMem(dst, off, src, size))
}

// StoreImm emits *(size*)(dst + off) = imm.
func (b *Builder) StoreImm(dst insn.Reg, off int16, imm int32, size int) *Builder {
	return b.I(insn.StoreImm(dst, off, imm, size))
}

// Call emits a helper call.
func (b *Builder) Call(helper int32) *Builder { return b.I(insn.Call(helper)) }

// Exit emits the program-exit instruction.
func (b *Builder) Exit() *Builder { return b.I(insn.Exit()) }

// Ret emits "r0 = code; exit".
func (b *Builder) Ret(code int32) *Builder {
	return b.I(insn.Mov64Imm(insn.R0, code)).Exit()
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.items) }

// Labels returns a copy of the label table (name to instruction index).
func (b *Builder) Labels() map[string]int {
	out := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		out[k] = v
	}
	return out
}

// Assemble resolves labels and returns the finished program.
func (b *Builder) Assemble() ([]insn.Instruction, error) {
	if b.err != nil {
		return nil, b.err
	}
	prog := make([]insn.Instruction, len(b.items))
	for i, it := range b.items {
		ins := it.ins
		if it.target != "" {
			idx, ok := b.labels[it.target]
			if !ok {
				return nil, fmt.Errorf("asm: undefined label %q (insn %d)", it.target, i)
			}
			off := idx - (i + 1)
			if off != int(int16(off)) {
				return nil, fmt.Errorf("asm: branch to %q out of int16 range (insn %d)", it.target, i)
			}
			ins.Off = int16(off)
		}
		prog[i] = ins
	}
	return prog, nil
}

// MustAssemble is Assemble for static program definitions: it panics on
// error, which indicates a bug in the program text, not a runtime condition.
func (b *Builder) MustAssemble() []insn.Instruction {
	prog, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return prog
}
