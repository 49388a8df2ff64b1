// Package cfg builds instruction-level control-flow graphs over KFlex
// bytecode and computes the structural facts the verifier and the Kie
// instrumentation engine need: reachability, a reverse postorder, and the
// retreating edges that close every cycle. Retreating edges of loops whose
// termination cannot be proven become class-1 cancellation points (§3.3 of
// the paper).
package cfg

import (
	"fmt"

	"kflex/insn"
)

// Graph is the control-flow graph of one program. Nodes are instruction
// indices into Insns; CALL instructions fall through to the next
// instruction (helpers always return).
type Graph struct {
	Insns []insn.Instruction
	Succ  [][]int
	Pred  [][]int

	// rpoIdx is each node's position in a reverse postorder of the nodes
	// reachable from entry, -1 if unreachable.
	rpoIdx []int
}

// Build constructs and validates the CFG. It rejects empty programs,
// branches that leave the program, fallthrough past the final instruction,
// and a final instruction that is not EXIT or an unconditional branch.
func Build(prog []insn.Instruction) (*Graph, error) {
	if len(prog) == 0 {
		return nil, fmt.Errorf("cfg: empty program")
	}
	g := &Graph{
		Insns: prog,
		Succ:  make([][]int, len(prog)),
		Pred:  make([][]int, len(prog)),
	}
	for i, ins := range prog {
		var succ []int
		switch {
		case ins.IsExit():
			// no successors
		case ins.IsJump():
			target := i + 1 + int(ins.Off)
			if target < 0 || target >= len(prog) {
				return nil, fmt.Errorf("cfg: insn %d: branch target %d out of range", i, target)
			}
			succ = append(succ, target)
			if ins.IsCond() {
				if i+1 >= len(prog) {
					return nil, fmt.Errorf("cfg: insn %d: conditional branch falls off the end", i)
				}
				if target != i+1 {
					succ = append(succ, i+1)
				}
			}
		default:
			if i+1 >= len(prog) {
				return nil, fmt.Errorf("cfg: insn %d: control falls off the end of the program", i)
			}
			succ = append(succ, i+1)
		}
		g.Succ[i] = succ
		for _, s := range succ {
			g.Pred[s] = append(g.Pred[s], i)
		}
	}
	g.computeRPO()
	return g, nil
}

// computeRPO performs an iterative DFS from the entry and numbers the
// reachable nodes in reverse postorder.
func (g *Graph) computeRPO() {
	n := len(g.Insns)
	visited := make([]bool, n)
	var post []int
	// Iterative DFS with explicit stack of (node, next-successor-index).
	type frame struct{ node, next int }
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succ[f.node]) {
			s := g.Succ[f.node][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	g.rpoIdx = make([]int, n)
	for i := range g.rpoIdx {
		g.rpoIdx[i] = -1
	}
	for i, node := range post {
		g.rpoIdx[node] = len(post) - 1 - i
	}
}

// BackEdge is a CFG edge tail→head that closes a cycle.
type BackEdge struct {
	Tail, Head int
}

// Retreating reports whether the CFG edge tail→head goes backward (or
// stays in place) in reverse postorder. Every cycle, reducible or not,
// contains at least one such edge, so cutting all of them cuts every loop;
// a dominator-based back-edge test misses the cycles with two entries.
func (g *Graph) Retreating(tail, head int) bool {
	return g.rpoIdx[tail] >= 0 && g.rpoIdx[head] <= g.rpoIdx[tail]
}

// RetreatingEdges returns every retreating edge between reachable
// instructions, ordered by tail and then by successor order. It is the one
// loop analysis: the verifier widens at the heads and, where it cannot
// bound the loop, Kie plants a *terminate probe before each tail.
func (g *Graph) RetreatingEdges() []BackEdge {
	var out []BackEdge
	for tail := range g.Insns {
		for _, head := range g.Succ[tail] {
			if g.Retreating(tail, head) {
				out = append(out, BackEdge{Tail: tail, Head: head})
			}
		}
	}
	return out
}

// HasUnreachable reports whether any instruction is unreachable; the eBPF
// verifier rejects programs containing dead code.
func (g *Graph) HasUnreachable() (int, bool) {
	for i, pos := range g.rpoIdx {
		if pos < 0 {
			return i, true
		}
	}
	return -1, false
}
