package faultinject

import (
	"reflect"
	"testing"
)

func TestNilAndDisabledNeverFire(t *testing.T) {
	var p *Plan
	if p.Fire(HeapGuard, 0) {
		t.Fatal("nil plan fired")
	}
	q := NewPlan(1).SetRate(HeapGuard, 1.0)
	if q.Fire(HeapGuard, 0) {
		t.Fatal("disabled plan fired")
	}
	q.Enable()
	if !q.Fire(HeapGuard, 0) {
		t.Fatal("enabled rate-1 plan did not fire")
	}
	q.Disarm()
	if q.Fire(HeapGuard, 0) {
		t.Fatal("disarmed plan fired")
	}
}

func TestFailNthPerKey(t *testing.T) {
	p := NewPlan(7)
	p.FailNth(AllocFail, 3 /* size class */, 2)
	p.Enable()
	// Other keys never fire; key 3 fires on its 2nd occurrence only.
	for i := 0; i < 5; i++ {
		if p.Fire(AllocFail, 1) {
			t.Fatal("wrong key fired")
		}
	}
	if p.Fire(AllocFail, 3) {
		t.Fatal("1st occurrence fired")
	}
	if !p.Fire(AllocFail, 3) {
		t.Fatal("2nd occurrence did not fire")
	}
	if p.Fire(AllocFail, 3) {
		t.Fatal("trigger not one-shot")
	}
	if got := p.Injected(); got != 1 {
		t.Fatalf("injected = %d", got)
	}
}

func TestFailNthAnyKey(t *testing.T) {
	p := NewPlan(7)
	p.FailNth(HeapGuard, AnyKey, 3)
	p.Enable()
	// The 3rd HeapGuard occurrence fires whatever its key; other kinds do
	// not count towards it.
	for i, key := range []uint64{10, 20, 30, 10} {
		p.Fire(AllocFail, key)
		if got, want := p.Fire(HeapGuard, key), i == 2; got != want {
			t.Fatalf("occurrence %d at key %d fired=%v, want %v", i+1, key, got, want)
		}
	}
	if ev := p.Events(); len(ev) != 1 || ev[0].Kind != HeapGuard || ev[0].Key != 30 {
		t.Fatalf("events = %v, want one heap-guard fault at key 30", ev)
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []Event {
		p := NewPlan(42).SetRate(HeapGuard, 0.3).SetRate(HelperErr, 0.1)
		p.FailNth(Terminate, 9, 4)
		p.Enable()
		for i := 0; i < 200; i++ {
			p.Fire(HeapGuard, uint64(i%4))
			p.Fire(HelperErr, 0x1001)
			p.Fire(Terminate, 9)
		}
		return p.Events()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ:\n%v\n%v", a, b)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

// TestSuspendNests: two overlapping Suspend brackets — two CPUs unwinding
// together — keep injection off until both have closed, whichever closes
// first, and a suspended Fire consumes no occurrence: the trace afterwards is
// the one the unsuspended calls alone produce. With an arm/disarm pair per
// bracket, the first to finish re-armed the plan under the second.
func TestSuspendNests(t *testing.T) {
	var none *Plan
	none.Suspend()() // nil plan: a no-op

	p := NewPlan(1).SetRate(HeapGuard, 1.0)
	p.Enable()
	if !p.Fire(HeapGuard, 0) {
		t.Fatal("armed rate-1 plan did not fire")
	}
	before := p.Events()
	first := p.Suspend()
	second := p.Suspend()
	first()
	if p.Fire(HeapGuard, 0) {
		t.Fatal("fired inside the second bracket once the first had closed")
	}
	if got := p.Events(); !reflect.DeepEqual(got, before) || p.seq != 1 {
		t.Fatalf("suspended Fire left a trace: events %v, seq %d", got, p.seq)
	}
	if !p.enabled.Load() {
		t.Fatal("Suspend moved the test's arming switch")
	}
	second()
	if !p.Fire(HeapGuard, 0) {
		t.Fatal("plan stayed suspended after the last bracket closed")
	}
	if ev := p.Events(); len(ev) != 2 || ev[1].Seq != 2 {
		t.Fatalf("events %v, want the second firing at seq 2", ev)
	}
}
