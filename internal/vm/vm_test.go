package vm

import (
	"testing"

	"kflex/asm"
	"kflex/insn"
	"kflex/internal/compile"
	"kflex/internal/compile/lowertest"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
)

// load runs the real verify+instrument+lower pipeline (the VM's contract is
// "verified, instrumented, lowered bytecode").
func load(t testing.TB, prog []insn.Instruction, heapSize uint64, mut func(*Options)) *Program {
	t.Helper()
	k := kernel.New()
	h, lowered := lowertest.Build(t, k, prog, heapSize)
	opts := Options{Hook: kernel.HookBench, Kernel: k, Heap: h, Lowered: lowered}
	if mut != nil {
		mut(&opts)
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, p *Program) Result {
	t.Helper()
	res, err := p.NewExec(0).Run(nil, make([]byte, kernel.HookBench.CtxSize))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		name string
		prog func(b *asm.Builder)
		want uint64
	}{
		{"add", func(b *asm.Builder) {
			b.MovImm(insn.R0, 40).Add(insn.R0, 2)
		}, 42},
		{"sub-wrap", func(b *asm.Builder) {
			b.MovImm(insn.R0, 0).I(insn.Alu64Imm(insn.AluSub, insn.R0, 1))
		}, ^uint64(0)},
		{"div-by-zero", func(b *asm.Builder) {
			b.MovImm(insn.R0, 100).MovImm(insn.R1, 0).
				I(insn.Alu64Reg(insn.AluDiv, insn.R0, insn.R1))
		}, 0},
		{"mod-by-zero", func(b *asm.Builder) {
			b.MovImm(insn.R0, 100).MovImm(insn.R1, 0).
				I(insn.Alu64Reg(insn.AluMod, insn.R0, insn.R1))
		}, 100},
		{"alu32-zero-extends", func(b *asm.Builder) {
			b.I(insn.LoadImm(insn.R0, 0xffffffff_00000001)).
				I(insn.Alu32Imm(insn.AluAdd, insn.R0, 1))
		}, 2},
		{"arsh", func(b *asm.Builder) {
			b.MovImm(insn.R0, -16).I(insn.Alu64Imm(insn.AluArsh, insn.R0, 2))
		}, uint64(0xfffffffffffffffc)},
		{"bswap64", func(b *asm.Builder) {
			b.I(insn.LoadImm(insn.R0, 0x0102030405060708)).
				I(insn.Instruction{Op: insn.ClassALU64 | insn.AluEnd, Dst: insn.R0, Imm: 64})
		}, 0x0807060504030201},
		{"lsh-mask", func(b *asm.Builder) {
			b.MovImm(insn.R0, 1).MovImm(insn.R1, 65).
				I(insn.Alu64Reg(insn.AluLsh, insn.R0, insn.R1))
		}, 2}, // shift counts mask to 6 bits like hardware
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := asm.New()
			c.prog(b)
			p := load(t, b.Exit().MustAssemble(), 0, nil)
			if got := run(t, p).Ret; got != c.want {
				t.Fatalf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestJumpSemantics(t *testing.T) {
	// Signed vs unsigned comparison: -1 u> 1 but -1 s< 1.
	prog := asm.New().
		MovImm(insn.R1, -1).
		MovImm(insn.R2, 1).
		MovImm(insn.R0, 0).
		JmpReg(insn.JmpGt, insn.R1, insn.R2, "u-gt").
		Ret(99).
		Label("u-gt").
		JmpReg(insn.JmpSlt, insn.R1, insn.R2, "s-lt").
		Ret(98).
		Label("s-lt").
		Ret(1).
		MustAssemble()
	p := load(t, prog, 0, nil)
	if got := run(t, p).Ret; got != 1 {
		t.Fatalf("ret = %d", got)
	}
}

func TestStackAndCtxAccess(t *testing.T) {
	prog := asm.New().
		Load(insn.R2, insn.R1, 8, 8).    // ctx->a
		Store(insn.R10, -8, insn.R2, 8). // spill
		Load(insn.R0, insn.R10, -8, 8).  // reload
		Store(insn.R1, 24, insn.R0, 8).  // ctx->out (writable)
		Exit().
		MustAssemble()
	p := load(t, prog, 0, nil)
	e := p.NewExec(0)
	ctx := make([]byte, kernel.HookBench.CtxSize)
	ctx[8] = 0x7b // a = 123
	res, err := e.Run(nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 123 || ctx[24] != 0x7b {
		t.Fatalf("ret=%d out=%d", res.Ret, ctx[24])
	}
}

func TestHeapAtomics(t *testing.T) {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		MovImm(insn.R2, 5).
		I(insn.Atomic(insn.AtomicAdd, insn.R6, 64, insn.R2, 8)).
		MovImm(insn.R2, 7).
		I(insn.Atomic(insn.AtomicAdd|insn.AtomicFetch, insn.R6, 64, insn.R2, 8)).
		Mov(insn.R7, insn.R2). // old value (5)
		MovImm(insn.R0, 5).    // expected
		MovImm(insn.R2, 12).   // cmpxchg operand must match current (12)
		MovImm(insn.R3, 99).
		I(insn.Atomic(insn.AtomicCmpXchg, insn.R6, 64, insn.R3, 8)). // fails: r0=5 != 12
		Mov(insn.R8, insn.R0).                                       // observed (12)
		Mov(insn.R0, insn.R7).
		I(insn.Alu64Imm(insn.AluLsh, insn.R0, 8)).
		I(insn.Alu64Reg(insn.AluOr, insn.R0, insn.R8)).
		Exit().
		MustAssemble()
	p := load(t, prog, 1<<16, nil)
	res := run(t, p)
	if res.Ret != 5<<8|12 {
		t.Fatalf("ret = %#x, want old=5 observed=12", res.Ret)
	}
}

func TestCancelAcrossExecs(t *testing.T) {
	// §4.3 cancellation scope: cancelling one invocation unloads the
	// extension for every CPU.
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("spin").
		Load(insn.R2, insn.R6, 64, 8).
		Ja("spin").
		MustAssemble()
	p := load(t, prog, 1<<16, func(o *Options) { o.QuantumInsns = 2000 })
	res := run(t, p)
	if res.Cancelled != CancelTerminate {
		t.Fatalf("cancelled = %v", res.Cancelled)
	}
	if _, err := p.NewExec(1).Run(nil, make([]byte, kernel.HookBench.CtxSize)); err != ErrUnloaded {
		t.Fatalf("second CPU err = %v, want ErrUnloaded", err)
	}
	if p.Cancels() != 1 {
		t.Fatalf("cancels = %d", p.Cancels())
	}
}

func TestProbeCostIsOneLoad(t *testing.T) {
	// §3.3: for correct extensions the only cancellation overhead is one
	// probe per loop iteration, a read of the stop rule (Exec.Cancelled).
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		MovImm(insn.R7, 100).
		Label("loop").
		Load(insn.R2, insn.R6, 64, 8). // heap touch keeps the loop "unbounded-looking"
		Load(insn.R7, insn.R6, 72, 8). // reload counter from heap: unknown bound
		JmpImm(insn.JmpNe, insn.R7, 0, "loop").
		Ret(0).
		MustAssemble()
	p := load(t, prog, 1<<16, nil)
	// Heap word 72 is zero, so the loop runs exactly once.
	res := run(t, p)
	if res.Stats.Probes == 0 {
		t.Fatal("no probes executed")
	}
	if res.Cancelled != CancelNone {
		t.Fatalf("correct program cancelled: %v", res.Cancelled)
	}
}

// TestProbeInjectionDraws pins what a fault plan sees of a probe: a
// Terminate draw at its CP id, then a HeapGuard draw at TerminateWordOff.
// Either firing cancels the invocation at the probe's PC, and a HeapGuard
// sweep over a loop's accesses (TestGrowCancel) lands on probes through
// the second.
func TestProbeInjectionDraws(t *testing.T) {
	prog := asm.New().
		Call(kernel.HelperKflexHeapBase).
		Mov(insn.R6, insn.R0).
		Label("spin").
		Load(insn.R2, insn.R6, 64, 8).
		Ja("spin").
		MustAssemble()
	var probePC int
	var cpID uint64
	probes := 0
	for _, ins := range load(t, prog, 1<<16, nil).opts.Lowered.Code {
		switch ins.Op {
		case compile.OpProbe, compile.OpProbeJa, compile.OpProbeJcc:
			probePC, cpID = int(ins.OrigPC), uint64(uint32(ins.Off))
			probes++
		}
	}
	if probes != 1 {
		t.Fatalf("%d probes lowered, want 1", probes)
	}
	fire := func(kind faultinject.Kind, key uint64) faultinject.Event {
		t.Helper()
		plan := faultinject.NewPlan(1).FailNth(kind, key, 1)
		p := load(t, prog, 1<<16, func(o *Options) {
			o.Fault = plan
			o.Heap.SetFaultPlan(plan)
			o.QuantumInsns = 1000 // a draw that never fires ends here
		})
		plan.Enable()
		res := run(t, p)
		if res.Cancelled != CancelTerminate || res.Abort.PC != probePC || res.Stats.Probes != 1 {
			t.Fatalf("%s: cancelled = %v at %v after %d probes, want terminate-probe at insn %d after 1",
				kind, res.Cancelled, res.Abort, res.Stats.Probes, probePC)
		}
		ev := plan.Events()
		if len(ev) != 1 {
			t.Fatalf("%s: events = %v, want one", kind, ev)
		}
		return ev[0]
	}
	term := fire(faultinject.Terminate, cpID)
	guard := fire(faultinject.HeapGuard, TerminateWordOff)
	if guard.Seq != term.Seq+1 {
		t.Fatalf("terminate draw %v, heap-guard draw %v: want the heap-guard draw next", term, guard)
	}
}

func TestGuardSanitizesWildPointer(t *testing.T) {
	// A wild store is redirected into the heap: memory safety holds, and
	// nothing outside the heap is touched.
	prog := asm.New().
		Load(insn.R2, insn.R1, 8, 8). // ctx->a: attacker-controlled address
		MovImm(insn.R3, 0x41).
		Store(insn.R2, 0, insn.R3, 1). // guarded store
		Ret(0).
		MustAssemble()
	// With a fully populated heap the sanitized store succeeds...
	p := load(t, prog, 1<<16, func(o *Options) {
		if err := o.Heap.Populate(0, o.Heap.Size()); err != nil {
			t.Fatal(err)
		}
	})
	e := p.NewExec(0)
	ctx := make([]byte, kernel.HookBench.CtxSize)
	for i := 0; i < 8; i++ {
		ctx[8+i] = 0xde // a = 0xdededededededede
	}
	res, err := e.Run(nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelNone {
		t.Fatalf("guarded store cancelled: %v", res.Cancelled)
	}
	if res.Stats.Guards == 0 {
		t.Fatal("no guard executed")
	}
	// The byte landed inside the heap at the masked offset.
	h := p.opts.Heap
	off := uint64(0xdededededededede) & h.Mask()
	v := h.ExtView()
	got, err := v.Load(h.ExtBase()+off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x41 {
		t.Fatalf("sanitized store missing: %#x", got)
	}

	// ...and with demand paging (no population), the same wild store
	// hits an unmapped page: a class-2 cancellation point fires (§3.3).
	p2 := load(t, prog, 1<<16, nil)
	res, err = p2.NewExec(0).Run(nil, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != CancelFault {
		t.Fatalf("unmapped wild store: cancelled = %v, want heap fault", res.Cancelled)
	}
}

func TestCtxSizeValidation(t *testing.T) {
	p := load(t, asm.New().Ret(0).MustAssemble(), 0, nil)
	if _, err := p.NewExec(0).Run(nil, make([]byte, 3)); err == nil {
		t.Fatal("wrong ctx size accepted")
	}
}

var sinkResult Result

// BenchmarkNullRun times Exec.Run on a Ret-only program: pure entry and
// exit, the fixed cost every invocation pays before its first instruction.
func BenchmarkNullRun(b *testing.B) {
	e := load(b, asm.New().Ret(0).MustAssemble(), 0, nil).NewExec(0)
	ctx := make([]byte, kernel.HookBench.CtxSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(nil, ctx)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
}
