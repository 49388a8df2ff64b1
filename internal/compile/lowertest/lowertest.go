// Package lowertest loads programs for the tests of the packages beneath
// the kflex runtime (internal/vm, internal/watchdog), which cannot import
// it: a program is verified, instrumented, lowered and linked over a fresh
// heap, as Runtime.Load would.
package lowertest

import (
	"testing"

	"kflex/insn"
	"kflex/internal/compile"
	"kflex/internal/heap"
	"kflex/internal/kernel"
	"kflex/internal/kie"
	"kflex/internal/verifier"
)

// Build runs prog through verify, instrument and lower at the bench hook on
// kernel k, and links it over a fresh heap of heapSize bytes (0: an
// eBPF-mode program, and a nil heap).
func Build(t testing.TB, k *kernel.Kernel, prog []insn.Instruction, heapSize uint64) (*heap.Heap, *compile.Linked) {
	t.Helper()
	mode := verifier.ModeEBPF
	lk := compile.Linkage{Helpers: k.Helpers}
	var h *heap.Heap
	if heapSize > 0 {
		mode = verifier.ModeKFlex
		var err error
		if h, err = heap.New(heapSize); err != nil {
			t.Fatal(err)
		}
		lk.HeapBase, lk.HeapMask, lk.UserBase = h.ExtBase(), h.Mask(), h.UserBase()
	}
	an, err := verifier.Verify(prog, verifier.Config{
		Mode: mode, Hook: kernel.HookBench, Kernel: k, HeapSize: heapSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := kie.Instrument(an)
	if err != nil {
		t.Fatal(err)
	}
	u, err := compile.Lower(rep)
	if err != nil {
		t.Fatal(err)
	}
	linked, err := u.Link(lk)
	if err != nil {
		t.Fatal(err)
	}
	return h, linked
}
