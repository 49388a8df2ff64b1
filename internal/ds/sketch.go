package ds

import (
	"unsafe"

	"kflex/asm"
	"kflex/insn"
)

// Sketch layout: SketchRows × SketchWidth 8-byte counters living at a fixed
// offset inside the heap's globals page. Because every row and the masked
// index are verifier-visible constants and bounded scalars, the range
// analysis proves every access in bounds — the sketches need no guards at
// all, matching the paper's note that all sketch accesses verify
// statically (Table 3 caption). The per-row loops are unrolled, so the
// programs also verify as terminating: no cancellation probes either.
type sketchGlobals struct {
	_    [8]uint64
	Rows [SketchRows][SketchWidth]uint64
}

const (
	sketchBase    = globalsOff + int32(unsafe.Offsetof(sketchGlobals{}.Rows))
	sketchRowSpan = int32(unsafe.Sizeof(sketchGlobals{}.Rows[0]))
)

// Row-mixing constants shared with the native twin.
const (
	sketchRowMix  = 0xD1B54A32D192ED03
	sketchFinMix  = 0xFF51AFD7ED558CCD
	sketchSignMix = 0xC2B2AE3D27D4EB4F
)

// emitSketchSlot computes &rows[row][hash(key,row)] into dst.
// Clobbers R0 and R1.
func emitSketchSlot(b *asm.Builder, dst insn.Reg, row int) {
	// h = key*hashMix + row*rowMix
	b.I(insn.LoadImm(insn.R0, hashMix))
	b.Mov(dst, rKey)
	b.I(insn.Alu64Reg(insn.AluMul, dst, insn.R0))
	b.I(insn.LoadImm(insn.R0, uint64(row)*sketchRowMix))
	b.AddReg(dst, insn.R0)
	// h ^= h >> 33
	b.Mov(insn.R0, dst)
	b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, 33))
	b.I(insn.Alu64Reg(insn.AluXor, dst, insn.R0))
	// h *= finMix
	b.I(insn.LoadImm(insn.R0, sketchFinMix))
	b.I(insn.Alu64Reg(insn.AluMul, dst, insn.R0))
	// idx = (h >> 16) & (width-1), scaled by 8
	b.I(insn.Alu64Imm(insn.AluRsh, dst, 16))
	b.I(insn.Alu64Imm(insn.AluAnd, dst, SketchWidth-1))
	b.I(insn.Alu64Imm(insn.AluLsh, dst, 3))
	// dst = heap + base + row*span + idx*8
	b.Add(dst, sketchBase+int32(row)*sketchRowSpan)
	b.AddReg(dst, rHeap)
}

// emitSketchSign multiplies v by row's ±1 sign for the key: it computes the
// sign parity bit (0 = +1, 1 = -1) into R4, the parity of key*signMix +
// row*hashMix, xor-folded, and negates v when it is set. Clobbers R0.
func emitSketchSign(b *asm.Builder, v insn.Reg, row int) {
	b.I(insn.LoadImm(insn.R0, sketchSignMix))
	b.Mov(insn.R4, rKey)
	b.I(insn.Alu64Reg(insn.AluMul, insn.R4, insn.R0))
	b.I(insn.LoadImm(insn.R0, uint64(row)*hashMix))
	b.AddReg(insn.R4, insn.R0)
	for _, sh := range []int32{32, 16, 8, 4, 2, 1} {
		b.Mov(insn.R0, insn.R4)
		b.I(insn.Alu64Imm(insn.AluRsh, insn.R0, sh))
		b.I(insn.Alu64Reg(insn.AluXor, insn.R4, insn.R0))
	}
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R4, 1))
	pos := b.Scope()("pos")
	b.JmpImm(insn.JmpEq, insn.R4, 0, pos)
	b.I(insn.Neg64(v))
	b.Label(pos)
}

// sketchProgram builds the count-min (signed=false) or count sketch
// (signed=true) extension.
func sketchProgram(signed bool) *asm.Builder {
	b := asm.New()
	prologue(b)

	// --- init: counters live in the zero-initialized globals page -------
	b.Label("init")
	b.Ret(0)

	// --- update: rows[r][h_r(key)] += sign_r * val, unrolled -------------
	b.Label("update")
	for row := 0; row < SketchRows; row++ {
		b.Load(insn.R5, rCtx, ctxVal, 8) // val
		if signed {
			emitSketchSign(b, insn.R5, row) // delta = sign * val
		}
		emitSketchSlot(b, insn.R3, row)
		b.Load(insn.R2, insn.R3, 0, 8)
		b.AddReg(insn.R2, insn.R5)
		b.Store(insn.R3, 0, insn.R2, 8)
	}
	b.Ret(0)

	// --- lookup -----------------------------------------------------------
	b.Label("lookup")
	if !signed {
		// Count-min: minimum of the four counters.
		b.I(insn.LoadImm(insn.R5, ^uint64(0)))
		for row := 0; row < SketchRows; row++ {
			emitSketchSlot(b, insn.R3, row)
			b.Load(insn.R2, insn.R3, 0, 8)
			skip := b.Scope()("skip")
			b.JmpReg(insn.JmpGe, insn.R2, insn.R5, skip)
			b.Mov(insn.R5, insn.R2)
			b.Label(skip)
		}
	} else {
		// Count sketch: median (lower middle) of the four signed
		// estimates sign_r * rows[r][h_r].
		for row := 0; row < SketchRows; row++ {
			emitSketchSlot(b, insn.R3, row)
			b.Load(insn.R2, insn.R3, 0, 8)
			emitSketchSign(b, insn.R2, row)
			// Estimates are staged on the stack: fp-8.. fp-32.
			b.Store(insn.R10, int16(-8*(row+1)), insn.R2, 8)
		}
		// Load into R2..R5 and sort with a 5-comparator network.
		b.Load(insn.R2, insn.R10, -8, 8)
		b.Load(insn.R3, insn.R10, -16, 8)
		b.Load(insn.R4, insn.R10, -24, 8)
		b.Load(insn.R5, insn.R10, -32, 8)
		pairs := [][2]insn.Reg{
			{insn.R2, insn.R3}, {insn.R4, insn.R5},
			{insn.R2, insn.R4}, {insn.R3, insn.R5},
			{insn.R3, insn.R4},
		}
		for _, p := range pairs {
			lbl := b.Scope()("sort")
			b.JmpReg(insn.JmpSle, p[0], p[1], lbl)
			b.Mov(insn.R0, p[0])
			b.Mov(p[0], p[1])
			b.Mov(p[1], insn.R0)
			b.Label(lbl)
		}
		b.Mov(insn.R5, insn.R3) // lower middle of four
	}
	b.Store(rCtx, ctxOut, insn.R5, 8)
	// found := estimate != 0 (both twins use this rule).
	b.JmpImm(insn.JmpEq, insn.R5, 0, "lk-zero")
	b.Ret(RetFound)
	b.Label("lk-zero")
	b.Ret(RetMiss)

	// --- delete: zero the key's slots -------------------------------------
	b.Label("delete")
	for row := 0; row < SketchRows; row++ {
		emitSketchSlot(b, insn.R3, row)
		b.StoreImm(insn.R3, 0, 0, 8)
	}
	b.Ret(RetFound)

	return b
}
