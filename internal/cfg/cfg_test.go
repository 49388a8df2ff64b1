package cfg

import (
	"testing"

	"kflex/asm"
	"kflex/insn"
)

func mustBuild(t *testing.T, prog []insn.Instruction) *Graph {
	t.Helper()
	g, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wantEdges asserts RetreatingEdges returns exactly want, in order.
func wantEdges(t *testing.T, g *Graph, want ...BackEdge) {
	t.Helper()
	got := g.RetreatingEdges()
	if len(got) != len(want) {
		t.Fatalf("retreating edges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retreating edges = %v, want %v", got, want)
		}
	}
}

func TestStraightLine(t *testing.T) {
	g := mustBuild(t, asm.New().
		MovImm(insn.R0, 1).
		MovImm(insn.R1, 2).
		Exit().
		MustAssemble())
	if len(g.Succ[0]) != 1 || g.Succ[0][0] != 1 {
		t.Errorf("succ[0] = %v", g.Succ[0])
	}
	if len(g.Succ[2]) != 0 {
		t.Errorf("exit has successors: %v", g.Succ[2])
	}
	if len(g.RetreatingEdges()) != 0 {
		t.Error("straight-line code has retreating edges")
	}
	if _, bad := g.HasUnreachable(); bad {
		t.Error("reported unreachable code")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty program accepted")
	}
	// Branch out of range.
	if _, err := Build([]insn.Instruction{insn.Ja(5), insn.Exit()}); err == nil {
		t.Error("wild branch accepted")
	}
	// Fallthrough off the end.
	if _, err := Build([]insn.Instruction{insn.Mov64Imm(insn.R0, 0)}); err == nil {
		t.Error("fallthrough off end accepted")
	}
	// Conditional branch as final instruction.
	if _, err := Build([]insn.Instruction{insn.JmpImm(insn.JmpEq, insn.R0, 0, -1)}); err == nil {
		t.Error("trailing conditional accepted")
	}
}

// diamond builds:
//
//	0: if r1 == 0 goto 3
//	1: r0 = 1
//	2: goto 4
//	3: r0 = 2
//	4: exit
func diamond(t *testing.T) *Graph {
	t.Helper()
	return mustBuild(t, asm.New().
		JmpImm(insn.JmpEq, insn.R1, 0, "else").
		MovImm(insn.R0, 1).
		Ja("join").
		Label("else").
		MovImm(insn.R0, 2).
		Label("join").
		Exit().
		MustAssemble())
}

// loop builds a counted loop:
//
//	0: r1 = 10
//	1: if r1 == 0 goto 4   (head)
//	2: r1 -= 1
//	3: goto 1              (back edge)
//	4: exit
func loopGraph(t *testing.T) *Graph {
	t.Helper()
	return mustBuild(t, asm.New().
		MovImm(insn.R1, 10).
		Label("head").
		JmpImm(insn.JmpEq, insn.R1, 0, "out").
		I(insn.Alu64Imm(insn.AluSub, insn.R1, 1)).
		Ja("head").
		Label("out").
		Exit().
		MustAssemble())
}

func TestLoopDetection(t *testing.T) {
	g := loopGraph(t)
	wantEdges(t, g, BackEdge{Tail: 3, Head: 1})
	if !g.Retreating(3, 1) || g.Retreating(1, 2) || g.Retreating(1, 4) {
		t.Error("Retreating disagrees with RetreatingEdges on the loop's own edges")
	}
}

func TestNestedLoops(t *testing.T) {
	// outer: i = 4; inner: j = 4
	g := mustBuild(t, asm.New().
		MovImm(insn.R1, 4).
		Label("outer").
		MovImm(insn.R2, 4).
		Label("inner").
		I(insn.Alu64Imm(insn.AluSub, insn.R2, 1)).
		JmpImm(insn.JmpNe, insn.R2, 0, "inner").
		I(insn.Alu64Imm(insn.AluSub, insn.R1, 1)).
		JmpImm(insn.JmpNe, insn.R1, 0, "outer").
		Exit().
		MustAssemble())
	// One edge per loop, ordered by tail: inner 3->2, then outer 5->1.
	wantEdges(t, g, BackEdge{Tail: 3, Head: 2}, BackEdge{Tail: 5, Head: 1})
}

func TestSelfLoop(t *testing.T) {
	// 0: r1 -=1 ; 1: if r1 != 0 goto 1 ; 2: exit — insn 1 self-loops.
	g := mustBuild(t, []insn.Instruction{
		insn.Alu64Imm(insn.AluSub, insn.R1, 1),
		insn.JmpImm(insn.JmpNe, insn.R1, 0, -1),
		insn.Exit(),
	})
	wantEdges(t, g, BackEdge{Tail: 1, Head: 1})
}

func TestUnreachableDetection(t *testing.T) {
	g := mustBuild(t, asm.New().
		Ja("end").
		MovImm(insn.R0, 9). // dead
		Label("end").
		Exit().
		MustAssemble())
	idx, bad := g.HasUnreachable()
	if !bad || idx != 1 {
		t.Fatalf("HasUnreachable = %d,%v; want 1,true", idx, bad)
	}
}

func TestIrreducibleEntryNotLoop(t *testing.T) {
	// Two arms, no loop: multiple preds at the join must not create a
	// spurious retreating edge.
	wantEdges(t, diamond(t))
}

// TestIrreducibleCycle: a cycle entered at two points has no node that
// dominates the rest, so a natural-loop analysis reports nothing and the
// loop would run without a probe; reverse postorder still has to step
// backward somewhere on it.
//
//	0: r3 = 0
//	1: if r1 == 0 goto 3     (second entry)
//	2: r3 += 1
//	3: r3 += 1
//	4: if r3 != r1 goto 2
//	5: exit
func TestIrreducibleCycle(t *testing.T) {
	g := mustBuild(t, asm.New().
		MovImm(insn.R3, 0).
		JmpImm(insn.JmpEq, insn.R1, 0, "b").
		Label("a").
		I(insn.Alu64Imm(insn.AluAdd, insn.R3, 1)).
		Label("b").
		I(insn.Alu64Imm(insn.AluAdd, insn.R3, 1)).
		JmpReg(insn.JmpNe, insn.R3, insn.R1, "a").
		Exit().
		MustAssemble())
	wantEdges(t, g, BackEdge{Tail: 2, Head: 3})
}

func TestRPOStartsAtEntry(t *testing.T) {
	g := loopGraph(t)
	if g.rpoIdx[0] != 0 {
		t.Errorf("entry numbered %d in reverse postorder", g.rpoIdx[0])
	}
	seen := make([]bool, len(g.Insns))
	for node, pos := range g.rpoIdx {
		if pos < 0 || seen[pos] {
			t.Fatalf("rpoIdx = %v: node %d unnumbered or numbered twice", g.rpoIdx, node)
		}
		seen[pos] = true
	}
}

func TestCondBranchToNext(t *testing.T) {
	// A conditional branch whose target is the fallthrough produces a
	// single successor (no duplicate edges).
	g := mustBuild(t, []insn.Instruction{
		insn.JmpImm(insn.JmpEq, insn.R1, 0, 0),
		insn.Exit(),
	})
	if len(g.Succ[0]) != 1 {
		t.Fatalf("succ = %v, want single edge", g.Succ[0])
	}
}
