package asm

import (
	"maps"
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

func TestMovImmSelectsEncoding(t *testing.T) {
	prog := New().
		MovImm(insn.R1, 5).
		MovImm(insn.R2, -7).
		MovImm(insn.R3, 1<<40).
		Exit().
		MustAssemble()
	if prog[0].Op.Class() != insn.ClassALU64 {
		t.Error("small imm should use MOV64")
	}
	if prog[1].Op.Class() != insn.ClassALU64 {
		t.Error("negative small imm should use MOV64")
	}
	if !prog[2].IsLoadImm64() || prog[2].Imm64 != 1<<40 {
		t.Errorf("large imm should use LDDW, got %+v", prog[2])
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

func TestConvenienceEmitters(t *testing.T) {
	prog := New().
		Mov(insn.R6, insn.R1).
		Add(insn.R6, 16).
		AddReg(insn.R6, insn.R2).
		Load(insn.R3, insn.R6, 8, 4).
		Store(insn.R6, 0, insn.R3, 8).
		StoreImm(insn.R6, 4, 1, 1).
		Call(9).
		Jmp32Reg(insn.JmpNe, insn.R1, insn.R2, "out").
		Jmp32Imm(insn.JmpLt, insn.R1, 10, "out").
		JmpReg(insn.JmpSge, insn.R1, insn.R2, "out").
		Label("out").
		Ret(2).
		MustAssemble()
	if len(prog) != 12 {
		t.Fatalf("len = %d, want 12", len(prog))
	}
	if prog[10].Imm != 2 || !prog[11].IsExit() {
		t.Error("Ret should emit mov+exit")
	}
	if prog[7].Off != 2 || prog[8].Off != 1 || prog[9].Off != 0 {
		t.Errorf("branch offsets wrong: %d %d %d", prog[7].Off, prog[8].Off, prog[9].Off)
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
