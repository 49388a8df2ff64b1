package vm

import (
	"bytes"
	"errors"
	"testing"

	"kflex/asm"
	"kflex/internal/heap"
	"kflex/internal/kernel"
)

// spanExec returns an idle Exec with a heap whose first two pages are
// mapped, a hook context, and one pinned 16-byte map value.
func spanExec(t testing.TB) (e *Exec, pinAddr uint64) {
	p := load(t, asm.New().Ret(0).MustAssemble(), 1<<16, func(o *Options) {
		if err := o.Heap.Populate(0, 2*heap.PageSize); err != nil {
			t.Fatal(err)
		}
	})
	e = p.NewExec(0)
	e.ctx = make([]byte, kernel.HookBench.CtxSize)
	return e, e.hc.PinValue(make([]byte, 16))
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0xa0 + i)
	}
	return b
}

// TestSpanRegionDispatch: Read/Write resolve the region of the
// buffer's first byte once and move the whole buffer there; a buffer that
// runs past the end of a non-heap region is refused whole, exactly like a
// multi-byte load or store that does.
func TestSpanRegionDispatch(t *testing.T) {
	e, pin := spanExec(t)
	base := e.extView.Base()
	regions := []struct {
		name string
		addr uint64
		n    int
		back func() []byte // the Go memory behind the span
	}{
		{"stack", stackVABase + 100, 96, func() []byte { return e.stack[100:196] }},
		{"stack-end", stackVABase + StackSize - 32, 32, func() []byte { return e.stack[StackSize-32:] }},
		{"ctx", ctxVABase + 8, 16, func() []byte { return e.ctx[8:24] }},
		{"pinned", pin + 3, 13, func() []byte { return e.pins[0][3:] }},
		{"heap-unaligned", base + 61, 67, nil},
	}
	for _, r := range regions {
		t.Run(r.name, func(t *testing.T) {
			want := pattern(r.n)
			if err := e.Write(r.addr, want); err != nil {
				t.Fatal(err)
			}
			if r.back != nil && !bytes.Equal(r.back(), want) {
				t.Fatalf("backing bytes = %x", r.back())
			}
			got := make([]byte, r.n)
			if err := e.Read(got, r.addr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read back %x, want %x", got, want)
			}
			// Byte-wise loads see the same memory.
			for i := range want {
				b, err := e.load(r.addr+uint64(i), 1)
				if err != nil || byte(b) != want[i] {
					t.Fatalf("load byte %d = %#x, %v", i, b, err)
				}
			}
		})
	}

	t.Run("object-window-reads-zero", func(t *testing.T) {
		got := pattern(24)
		if err := e.Read(got, kernel.ObjVABase|0x40); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 24)) {
			t.Fatalf("object window read %x", got)
		}
		wantFault(t, e.Write(kernel.ObjVABase|0x40, got), kernel.ObjVABase|0x40, heap.FaultOOB)
	})
	t.Run("wild-address-faults", func(t *testing.T) {
		wantFault(t, e.Read(make([]byte, 8), 0x1000), 0x1000, heap.FaultOOB)
		wantFault(t, e.Write(0x1000, make([]byte, 8)), 0x1000, heap.FaultOOB)
	})
	t.Run("empty-span", func(t *testing.T) {
		// Zero bytes touch nothing, wherever they point.
		if err := e.Read(nil, 0x1000); err != nil {
			t.Fatal(err)
		}
		if err := e.Write(stackVABase+StackSize, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("heap-fault-keeps-prefix", func(t *testing.T) {
		// Pages 0-1 are mapped, page 2 is not: the span stops there.
		addr := base + 2*heap.PageSize - 5
		if err := e.Write(addr, pattern(5)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 12)
		wantFault(t, e.Read(got, addr), base+2*heap.PageSize, heap.FaultUnmapped)
		if !bytes.Equal(got[:5], pattern(5)) || !bytes.Equal(got[5:], make([]byte, 7)) {
			t.Fatalf("prefix = %x", got)
		}
	})

	overruns := []struct {
		name string
		addr uint64
		n    int
	}{
		{"stack-overrun", stackVABase + StackSize - 8, 9},
		{"ctx-overrun", ctxVABase + uint64(len(e.ctx)) - 4, 5},
		{"pinned-overrun", pin + 8, 9},
	}
	for _, o := range overruns {
		t.Run(o.name, func(t *testing.T) {
			before, err := e.load(o.addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, o.n)
			var hf *heap.Fault
			if err := e.Read(got, o.addr); err == nil || errors.As(err, &hf) {
				t.Fatalf("Read err = %v, want a non-fault error", err)
			}
			if err := e.Write(o.addr, pattern(o.n)); err == nil || errors.As(err, &hf) {
				t.Fatalf("Write err = %v, want a non-fault error", err)
			}
			// Refused whole: the in-region bytes were not written.
			if first, err := e.load(o.addr, 1); err != nil || first != before {
				t.Fatalf("first byte = %#x (was %#x), %v", first, before, err)
			}
			// The same shape as one instruction's access.
			if _, err := e.load(o.addr+uint64(o.n)-8, 8); err == nil {
				t.Fatal("8-byte load over the region end accepted")
			}
		})
	}
}

func wantFault(t *testing.T, err error, addr uint64, kind heap.FaultKind) {
	t.Helper()
	var hf *heap.Fault
	if !errors.As(err, &hf) || hf.Addr != addr || hf.Kind != kind {
		t.Fatalf("err = %v, want %s at %#x", err, kind, addr)
	}
}

// TestLELoadStoreMatchByteLoop pins the fixed-width accessors to the byte
// loops they replaced, for every access size.
func TestLELoadStoreMatchByteLoop(t *testing.T) {
	refLoad := func(b []byte, size int) uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		return v
	}
	refStore := func(b []byte, size int, v uint64) {
		for i := 0; i < size; i++ {
			b[i] = byte(v >> (8 * i))
		}
	}
	src := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x55}
	for _, size := range []int{1, 2, 4, 8} {
		for off := 0; off+size <= len(src); off++ {
			if got, want := leLoad(src[off:], size), refLoad(src[off:], size); got != want {
				t.Fatalf("leLoad size %d off %d = %#x, want %#x", size, off, got, want)
			}
		}
		for _, v := range []uint64{0, 0x1122334455667788, ^uint64(0), 0x80} {
			got := bytes.Repeat([]byte{0xee}, 10)
			want := bytes.Repeat([]byte{0xee}, 10)
			leStore(got[1:], size, v)
			refStore(want[1:], size, v)
			if !bytes.Equal(got, want) {
				t.Fatalf("leStore size %d val %#x = %x, want %x", size, v, got, want)
			}
		}
	}
}

var sinkU64 uint64

// BenchmarkHelperSpan times the buffer copies a Memcached request makes
// through HelperCtx: mc_reply's 64-byte value read from the heap, mc_parse's
// key + value write (32 + 64 bytes) to the stack, and a 32-byte key read
// from the stack (bpf_map_*).
func BenchmarkHelperSpan(b *testing.B) {
	e, _ := spanExec(b)
	buf := pattern(96)
	heapAddr := e.extView.Base() + 256
	keyAddr, valAddr := uint64(stackVABase+StackSize-32), uint64(stackVABase+StackSize-96)
	b.Run("read64-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.hc.Read(buf[:64], heapAddr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write96-stack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.hc.Write(keyAddr, buf[:32]); err != nil {
				b.Fatal(err)
			}
			if err := e.hc.Write(valAddr, buf[32:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read32-stack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.hc.Read(buf[:32], keyAddr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStackLoad8 times the 8-byte stack load every spill reload pays.
func BenchmarkStackLoad8(b *testing.B) {
	e, _ := spanExec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := e.load(stackVABase+uint64(i&63)*8, 8)
		if err != nil {
			b.Fatal(err)
		}
		sinkU64 += v
	}
}
