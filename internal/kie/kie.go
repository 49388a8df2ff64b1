// Package kie implements KFlex's instrumentation engine (Kie, §3 step 2 of
// the paper). Operating on verified bytecode plus the verifier's analysis,
// it rewrites the instruction stream to:
//
//   - sanitize heap accesses with SFI guards (mask + base add, §3.2),
//     eliding guards the range analysis proved unnecessary (unless the
//     §5.4 ablation disables elision) and, in performance mode, not
//     emitting read-path guards at all (§4.2) — the one place either knob
//     is resolved, so the lowering and the reference semantics run one
//     stream;
//   - plant *terminate probes at the back edges of loops whose termination
//     could not be proven, turning them into class-1 cancellation points
//     (§3.3);
//   - translate heap pointers to user-space addresses when stored, for
//     transparently shared heaps (§3.4);
//
// and to assign cancellation-point IDs carrying the object tables the
// runtime uses to release kernel resources on termination.
//
// # Adjacency contract
//
// The emitted stream satisfies an adjacency contract that internal/compile
// relies on to cluster instructions: each original instruction becomes
// one cluster probe→xlat→guard→original, so a guard is always immediately
// followed by the access it sanitizes, and a probe planted on a back edge
// is always immediately followed by the jump ending that edge (back-edge
// tails are jumps by construction). Branches are retargeted to cluster
// starts only — control flow can never enter between a guard (or probe)
// and the instruction it protects. Lowering re-checks this defensively
// (no cluster spans a branch target, and compile.Validate checks that every
// guard stays with its access), but the contract is what makes the guard
// and probe pairs clusterable at all.
package kie

import (
	"fmt"
	"sort"

	"kflex/insn"
	"kflex/internal/verifier"
)

// CPKind distinguishes the two classes of cancellation points (§3.3).
type CPKind int

const (
	// CPLoop is a class-1 point: the *terminate probe on an unbounded
	// loop back edge.
	CPLoop CPKind = iota
	// CPHeap is a class-2 point: a heap access that may fault on an
	// unmapped page.
	CPHeap
)

func (k CPKind) String() string {
	if k == CPLoop {
		return "C1/loop"
	}
	return "C2/heap"
}

// CP is one cancellation point in the instrumented program.
type CP struct {
	ID   int
	Insn int // index in the instrumented program
	Kind CPKind
	// Table lists the kernel resources held at this point and their
	// destructors (§3.3). Empty for points where nothing is held.
	Table []verifier.ObjTableEntry
}

// Report describes the instrumentation applied to one program.
type Report struct {
	// Prog is the instrumented instruction stream.
	Prog []insn.Instruction
	// OldToNew maps original instruction indices to their position in
	// Prog (the first inserted instruction for that index).
	OldToNew []int

	// Guard statistics in Table 3's terms: guards on manipulated heap
	// pointers are the elidable population; formation guards (fresh heap
	// pointers) are mandatory and excluded.
	ManipGuards     int // emitted, range analysis could not prove safety
	ElidedGuards    int // elided thanks to range analysis (§5.4)
	FormationGuards int // emitted on forming a new heap pointer
	StaticSafe      int // accesses needing no guard consideration at all

	ReadGuards  int // read-path guards: emitted as OpGuardRd, or not at all in performance mode
	WriteGuards int // guards that are always emitted
	Probes      int // *terminate probes planted
	XlatStores  int // translate-on-store sites

	CPs []CP
}

// GuardCandidates returns Table 3's "total number of guard insns" for this
// program: guards considered on pointer manipulation, whether emitted or
// elided.
func (r *Report) GuardCandidates() int { return r.ManipGuards + r.ElidedGuards }

// Instrument rewrites the analyzed program. The analysis must come from
// verifier.Verify on the same instruction slice.
func Instrument(an *verifier.Analysis) (*Report, error) {
	prog := an.Prog
	n := len(prog)
	if len(an.Facts) != n {
		return nil, fmt.Errorf("kie: analysis facts (%d) do not match program length (%d)", len(an.Facts), n)
	}
	// Kie owns three decisions about a heap access, each read from
	// an.Config. Whether it is guarded: where the verifier asked for one,
	// or everywhere under DisableElision (the §5.4 ablation; the Facts keep
	// the verifier's verdicts). Whether the guard is a read guard: a
	// distinct opcode, and the one performance mode omits (§3.2, §4.2), only
	// when it does no translation work — with a shared, translated heap the
	// stored pointers are user VAs and reads must re-base them, so those
	// guards are ordinary ones in either mode. And whether it is emitted.
	guarded := func(f verifier.AccessFact) bool { return f.Guard || an.Config.DisableElision }
	readGuard := func(f verifier.AccessFact) bool { return f.Read && !an.Config.ShareHeap }
	emitted := func(f verifier.AccessFact) bool {
		return f.HeapAccess && guarded(f) && !(an.Config.PerfMode && readGuard(f))
	}

	// Tails of unbounded retreating edges receive a probe.
	probeAt := make(map[int]bool)
	for _, e := range an.UnboundedEdges {
		probeAt[e.Tail] = true
	}

	// Pass 1: how many instructions are inserted before each original one.
	inserted := make([]int, n)
	for i, f := range an.Facts {
		if probeAt[i] {
			inserted[i]++
		}
		if emitted(f) {
			inserted[i]++
		}
		if f.StoresHeapPtr {
			inserted[i]++
		}
	}
	oldToNew := make([]int, n+1)
	for i := 0; i < n; i++ {
		oldToNew[i+1] = oldToNew[i] + 1 + inserted[i]
	}

	rep := &Report{OldToNew: oldToNew[:n]}
	out := make([]insn.Instruction, 0, oldToNew[n])
	cpID := 0
	addCP := func(pos int, kind CPKind, tableAt int) {
		rep.CPs = append(rep.CPs, CP{
			ID:    cpID,
			Insn:  pos,
			Kind:  kind,
			Table: an.ObjTables[tableAt],
		})
		cpID++
	}

	// Pass 2: emit.
	for i, ins := range prog {
		f := an.Facts[i]
		if probeAt[i] {
			addCP(len(out), CPLoop, i)
			out = append(out, insn.Probe(int32(cpID-1)))
			rep.Probes++
		}
		if f.StoresHeapPtr {
			out = append(out, insn.Xlat(ins.Src))
			rep.XlatStores++
		}
		if f.HeapAccess {
			base := heapBaseReg(ins)
			switch {
			case guarded(f):
				if readGuard(f) {
					if emitted(f) {
						out = append(out, insn.GuardRd(base))
					}
					rep.ReadGuards++
				} else {
					out = append(out, insn.Guard(base))
					rep.WriteGuards++
				}
				if f.Formation {
					rep.FormationGuards++
				} else {
					rep.ManipGuards++
				}
			case f.Manip:
				rep.ElidedGuards++
			default:
				rep.StaticSafe++
			}
			addCP(len(out), CPHeap, i)
		}
		// Retarget branches through the mapping.
		if ins.IsJump() {
			target := i + 1 + int(ins.Off)
			newOff := oldToNew[target] - (len(out) + 1)
			if newOff != int(int16(newOff)) {
				return nil, fmt.Errorf("kie: insn %d: instrumented branch offset %d overflows", i, newOff)
			}
			ins.Off = int16(newOff)
		}
		out = append(out, ins)
	}
	rep.Prog = out
	sort.Slice(rep.CPs, func(a, b int) bool { return rep.CPs[a].ID < rep.CPs[b].ID })
	return rep, nil
}

// heapBaseReg returns the register holding the heap address of a
// load/store/atomic instruction.
func heapBaseReg(ins insn.Instruction) insn.Reg {
	if ins.Op.Class() == insn.ClassLDX {
		return ins.Src
	}
	return ins.Dst // ST, STX, atomics address via Dst
}

// String summarizes the report in Table 3's vocabulary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"guards: %d emitted / %d elided (%.0f%%) on manipulation, %d formation, %d static-safe; %d probes; %d xlat stores",
		r.ManipGuards, r.ElidedGuards, elidedPct(r), r.FormationGuards, r.StaticSafe, r.Probes, r.XlatStores)
}

func elidedPct(r *Report) float64 {
	total := r.GuardCandidates()
	if total == 0 {
		return 100
	}
	return 100 * float64(r.ElidedGuards) / float64(total)
}
