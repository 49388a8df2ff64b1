package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kflex/internal/faultinject"
)

// refRead and refWrite are the byte-at-a-time copies ReadInto and WriteFrom
// replaced: one View.Load / View.Store per byte, stopping at the first
// error. They are the model the span accessors are held to.
func refRead(v View, addr uint64, dst []byte) error {
	for i := range dst {
		b, err := v.Load(addr+uint64(i), 1)
		if err != nil {
			return err
		}
		dst[i] = byte(b)
	}
	return nil
}

func refWrite(v View, addr uint64, src []byte) error {
	for i, b := range src {
		if err := v.Store(addr+uint64(i), 1, uint64(b)); err != nil {
			return err
		}
	}
	return nil
}

const spanHeapSize = 16 * PageSize

// spanMapped is the page layout of the twin heaps: runs of mapped pages,
// single unmapped holes, and a mapped last page so spans reach the heap end.
var spanMapped = []uint64{0, 1, 2, 4, 7, 8, 9, 15}

// spanPlans builds the fault plans the twins run under; each call returns a
// fresh, identically seeded plan.
var spanPlans = map[string]func() *faultinject.Plan{
	"no-plan": func() *faultinject.Plan { return nil },
	"rate": func() *faultinject.Plan {
		return faultinject.NewPlan(7).SetRate(faultinject.HeapGuard, 0.01)
	},
	"nth": func() *faultinject.Plan {
		p := faultinject.NewPlan(7)
		for _, key := range []uint64{0, 5, PageSize - 1, PageSize, PageSize + 3, 3 * PageSize,
			8*PageSize + 64, spanHeapSize - 1, spanHeapSize, ^uint64(0)} {
			p.FailNth(faultinject.HeapGuard, key, 1).FailNth(faultinject.HeapGuard, key, 4)
		}
		return p
	},
}

func newSpanTwin(t *testing.T, seed int64, plan *faultinject.Plan) *Heap {
	t.Helper()
	h := newHeap(t, spanHeapSize)
	rng := rand.New(rand.NewSource(seed))
	for _, p := range spanMapped {
		if err := h.Populate(p*PageSize, PageSize); err != nil {
			t.Fatal(err)
		}
		for w := p * PageSize / 8; w < (p+1)*PageSize/8; w++ {
			h.words[w] = rng.Uint64()
		}
	}
	if plan != nil {
		h.SetFaultPlan(plan)
		plan.Enable()
	}
	return h
}

// relFault reduces an accessor error to (offset from the view base, kind),
// which is comparable across heaps with different bases.
func relFault(t *testing.T, err error, base uint64) string {
	t.Helper()
	if err == nil {
		return "ok"
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("non-fault error %v", err)
	}
	return fmt.Sprintf("%s@%#x", f.Kind, f.Addr-base)
}

// fireCount reads a plan's lifetime Fire count: one more call, made to
// fire, is recorded with its sequence number.
func fireCount(p *faultinject.Plan) uint64 {
	p.FailNth(faultinject.HeapPage, ^uint64(0), 1)
	p.Fire(faultinject.HeapPage, ^uint64(0))
	ev := p.Events()
	return ev[len(ev)-1].Seq
}

// TestSpanAccessorsMatchByteLoop drives ReadInto/WriteFrom on one heap and
// the byte loops on its twin with the same seeded stream of spans — across
// page boundaries, unmapped holes, the heap end, both guard zones, empty
// and unaligned — and requires the same bytes read, the same heap image
// (so the same stored prefix), the same fault, and the same fault-plan
// trace and Fire count, including after Close.
func TestSpanAccessorsMatchByteLoop(t *testing.T) {
	anchors := []uint64{0, 8, PageSize, 3 * PageSize, 4 * PageSize, 5 * PageSize, 7 * PageSize,
		10 * PageSize, 15 * PageSize, spanHeapSize, spanHeapSize + GuardZone, ^uint64(GuardZone - 1)}
	for name, mkPlan := range spanPlans {
		t.Run(name, func(t *testing.T) {
			planS, planR := mkPlan(), mkPlan()
			hs, hr := newSpanTwin(t, 11, planS), newSpanTwin(t, 11, planR)
			rng := rand.New(rand.NewSource(23))
			trial := func(i int) {
				off := anchors[rng.Intn(len(anchors))] + uint64(rng.Intn(41)) - 20
				if rng.Intn(4) == 0 {
					off = uint64(rng.Intn(spanHeapSize))
				}
				var n int
				switch rng.Intn(4) {
				case 0:
					n = rng.Intn(10) // empty and sub-word
				case 1:
					n = 2*PageSize + rng.Intn(64) // always crosses two boundaries
				default:
					n = rng.Intn(200)
				}
				vs, vr := hs.ExtView(), hr.ExtView()
				if i%2 == 1 {
					vs, vr = hs.UserView(), hr.UserView()
				}
				var errS, errR error
				if rng.Intn(2) == 0 {
					gotS, gotR := bytes.Repeat([]byte{0x5a}, n), bytes.Repeat([]byte{0x5a}, n)
					errS, errR = vs.ReadInto(vs.Base()+off, gotS), refRead(vr, vr.Base()+off, gotR)
					for j := range gotS {
						if gotS[j] != gotR[j] {
							t.Fatalf("trial %d: read %d at %#x: byte %d is %#x from the span, %#x from the loop",
								i, n, off, j, gotS[j], gotR[j])
						}
					}
				} else {
					src := make([]byte, n)
					rng.Read(src)
					errS, errR = vs.WriteFrom(vs.Base()+off, src), refWrite(vr, vr.Base()+off, src)
				}
				if fs, fr := relFault(t, errS, vs.Base()), relFault(t, errR, vr.Base()); fs != fr {
					t.Fatalf("trial %d: %d bytes at %#x: span %s, loop %s", i, n, off, fs, fr)
				}
			}
			for i := 0; i < 4000; i++ {
				trial(i)
			}
			hs.Close()
			hr.Close()
			for i := 0; i < 50; i++ {
				trial(i)
			}
			if !slices.Equal(hs.words, hr.words) {
				t.Fatal("heap images differ")
			}
			if planS == nil {
				return
			}
			if evS, evR := planS.Events(), planR.Events(); !reflect.DeepEqual(evS, evR) {
				t.Fatalf("fault traces differ: span %d events, loop %d", len(evS), len(evR))
			} else if len(evS) == 0 {
				t.Fatal("plan never fired: the trace comparison is vacuous")
			}
			if cs, cr := fireCount(planS), fireCount(planR); cs != cr {
				t.Fatalf("Fire called %d times by the span accessors, %d by the byte loops", cs, cr)
			}
		})
	}
}

// TestSpanFaultCases spells out the contract on hand-picked spans: which
// byte the fault names, and that the bytes before it moved.
func TestSpanFaultCases(t *testing.T) {
	h := newSpanTwin(t, 3, nil)
	v := h.ExtView()
	cases := []struct {
		name string
		off  uint64
		n    int
		ok   int // accessible prefix
		kind FaultKind
	}{
		{"unmapped-hole", 3*PageSize - 10, 30, 10, FaultUnmapped},
		{"starts-unmapped", 3 * PageSize, 16, 0, FaultUnmapped},
		{"heap-end", spanHeapSize - 3, 8, 3, FaultOOB},
		{"high-guard", spanHeapSize + 100, 8, 0, FaultOOB},
		{"low-guard", ^uint64(7), 16, 0, FaultOOB},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := bytes.Repeat([]byte{0xc3}, c.n)
			want := fmt.Sprintf("%s@%#x", c.kind, c.off+uint64(c.ok))
			if got := relFault(t, v.WriteFrom(v.Base()+c.off, src), v.Base()); got != want {
				t.Fatalf("WriteFrom: %s, want %s", got, want)
			}
			dst := make([]byte, c.n)
			if got := relFault(t, v.ReadInto(v.Base()+c.off, dst), v.Base()); got != want {
				t.Fatalf("ReadInto: %s, want %s", got, want)
			}
			if !bytes.Equal(dst[:c.ok], src[:c.ok]) || !bytes.Equal(dst[c.ok:], make([]byte, c.n-c.ok)) {
				t.Fatalf("read back %x, want %d stored bytes then zeros", dst, c.ok)
			}
		})
	}
}
