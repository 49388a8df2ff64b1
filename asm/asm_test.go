package asm

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"kflex/insn"
)

func TestForwardAndBackwardBranches(t *testing.T) {
	b := New()
	b.MovImm(insn.R1, 3)
	b.Label("loop")
	b.JmpImm(insn.JmpEq, insn.R1, 0, "done")
	b.I(insn.Alu64Imm(insn.AluSub, insn.R1, 1))
	b.Ja("loop")
	b.Label("done")
	b.Ret(0)
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// insn 1: "if r1 == 0 goto done" — done is insn 4, so off = 2.
	if prog[1].Off != 2 {
		t.Errorf("forward branch off = %d, want 2", prog[1].Off)
	}
	// insn 3: "goto loop" — loop is insn 1, so off = -3.
	if prog[3].Off != -3 {
		t.Errorf("backward branch off = %d, want -3", prog[3].Off)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := New().Ja("nowhere")
	b.Exit()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v, want undefined label", err)
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := New()
	b.Label("x").Exit()
	b.Label("x").Exit()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want duplicate label", err)
	}
}

func TestErrorLatched(t *testing.T) {
	b := New()
	b.Label("x")
	b.Label("x") // first error
	b.Ja("also-missing")
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v, want first (duplicate) error", err)
	}
}

// TestMovImmSelectsEncoding: MovImm takes the one-slot sign-extended MOV64
// exactly when the constant fits in an int32, and LDDW otherwise.
func TestMovImmSelectsEncoding(t *testing.T) {
	for _, v := range []int64{0, 5, -7, -1, math.MaxInt32, math.MinInt32} {
		if got := New().MovImm(insn.R1, v).MustAssemble(); len(got) != 1 || got[0] != insn.Mov64Imm(insn.R1, int32(v)) {
			t.Errorf("MovImm(%d) = %+v, want MOV64", v, got)
		}
	}
	for _, v := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 40, 0xdeadbeefcafe} {
		if got := New().MovImm(insn.R1, v).MustAssemble(); len(got) != 1 || got[0] != insn.LoadImm(insn.R1, uint64(v)) {
			t.Errorf("MovImm(%#x) = %+v, want LDDW", v, got)
		}
	}
}

// TestWireRoundTrip: a Builder's branch offsets count an LDDW as one
// instruction, and what it assembles survives the wire codec (where LDDW
// is two slots) unchanged.
func TestWireRoundTrip(t *testing.T) {
	progs := map[string]*Builder{
		"empty": New(),
		"loop": New().
			MovImm(insn.R0, 0).
			MovImm(insn.R1, 10).
			MovImm(insn.R2, 0xdeadbeefcafe).
			Label("loop").
			JmpImm(insn.JmpEq, insn.R1, 0, "out").
			AddReg(insn.R0, insn.R1).
			I(insn.Alu64Imm(insn.AluSub, insn.R1, 1)).
			Store(insn.R10, -8, insn.R0, 8).
			Load(insn.R3, insn.R10, -8, 8).
			Ja("loop").
			Label("out").
			Call(7).
			Exit(),
		"over-lddw": New().
			Jmp32Reg(insn.JmpEq, insn.R1, insn.R2, "out").
			MovImm(insn.R2, 0xdeadbeefcafe).
			Label("out").
			Exit(),
		"two-labels": New().
			Label("a").
			Label("b").
			Ja("a").
			Ja("b"),
	}
	wantOff := map[string]map[int]int16{
		"loop":       {3: 5, 8: -6},
		"over-lddw":  {0: 1},
		"two-labels": {0: -1, 1: -2},
	}
	for name, b := range progs {
		prog, err := b.Assemble()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, off := range wantOff[name] {
			if prog[i].Off != off {
				t.Errorf("%s: insn %d off = %d, want %d", name, i, prog[i].Off, off)
			}
		}
		raw, err := insn.Encode(prog)
		if err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		back, err := insn.Decode(raw)
		if err != nil || !slices.Equal(back, prog) {
			t.Errorf("%s: wire round trip = (%v, %v), want\n%s", name, insn.Disassemble(back), err, insn.Disassemble(prog))
		}
	}
}

func TestLabelAtEnd(t *testing.T) {
	b := New()
	b.Ja("end")
	b.Label("end")
	b.Exit()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Off != 0 {
		t.Errorf("off = %d, want 0", prog[0].Off)
	}
}

// TestConvenienceEmitters: each emitter emits the instruction (Ret: the two)
// its insn constructor builds, with branch offsets resolved.
func TestConvenienceEmitters(t *testing.T) {
	prog := New().
		Mov(insn.R6, insn.R1).
		Add(insn.R6, -16).
		AddReg(insn.R6, insn.R2).
		Load(insn.R3, insn.R6, 8, 4).
		Load(insn.R4, insn.R6, 129, 1).
		Store(insn.R6, 0, insn.R3, 8).
		Store(insn.R7, -2, insn.R8, 2).
		StoreImm(insn.R6, 4, -5, 1).
		Call(9).
		Jmp32Reg(insn.JmpNe, insn.R1, insn.R2, "out").
		Jmp32Imm(insn.JmpLt, insn.R1, 10, "out").
		JmpReg(insn.JmpSge, insn.R1, insn.R2, "out").
		Label("out").
		Ret(2).
		MustAssemble()
	want := []insn.Instruction{
		insn.Mov64Reg(insn.R6, insn.R1),
		insn.Alu64Imm(insn.AluAdd, insn.R6, -16),
		insn.Alu64Reg(insn.AluAdd, insn.R6, insn.R2),
		insn.LoadMem(insn.R3, insn.R6, 8, 4),
		insn.LoadMem(insn.R4, insn.R6, 129, 1),
		insn.StoreMem(insn.R6, 0, insn.R3, 8),
		insn.StoreMem(insn.R7, -2, insn.R8, 2),
		insn.StoreImm(insn.R6, 4, -5, 1),
		insn.Call(9),
		insn.Jmp32Reg(insn.JmpNe, insn.R1, insn.R2, 2),
		insn.Jmp32Imm(insn.JmpLt, insn.R1, 10, 1),
		insn.JmpReg(insn.JmpSge, insn.R1, insn.R2, 0),
		insn.Mov64Imm(insn.R0, 2),
		insn.Exit(),
	}
	if !slices.Equal(prog, want) {
		t.Fatalf("emitted\n%s\nwant\n%s", insn.Disassemble(prog), insn.Disassemble(want))
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	New().Ja("missing").MustAssemble()
}

func TestLen(t *testing.T) {
	b := New().Exit()
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestLabels(t *testing.T) {
	b := New().
		MovImm(insn.R0, 1).
		Label("mid").
		MovImm(insn.R0, 2).
		Label("end").
		Exit()
	labels := b.Labels()
	if labels["mid"] != 1 || labels["end"] != 2 {
		t.Fatalf("labels = %v", labels)
	}
	// Mutating the copy must not affect the builder.
	labels["mid"] = 99
	if b.Labels()["mid"] != 1 {
		t.Fatal("Labels returned live map")
	}
}

// TestScope: two expansions of one fragment under the same base names
// assemble without a duplicate label, each branch reaches its own
// expansion's label, and two Builders given the same calls name the same
// labels.
func TestScope(t *testing.T) {
	build := func() *Builder {
		b := New()
		for range 2 {
			l := b.Scope()
			b.JmpImm(insn.JmpEq, insn.R1, 0, l("skip"))
			b.MovImm(insn.R0, 1)
			b.Label(l("skip"))
		}
		return b.Exit()
	}
	b := build()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if prog[0].Off != 1 || prog[2].Off != 1 {
		t.Fatalf("branch offsets %d, %d; want 1, 1", prog[0].Off, prog[2].Off)
	}
	if got := b.Labels(); len(got) != 2 || !maps.Equal(got, build().Labels()) {
		t.Fatalf("labels %v differ between two Builders given the same calls", got)
	}
}
