package kernel

import (
	"errors"
	"fmt"
	"testing"
)

func TestObjectRefcount(t *testing.T) {
	destroyed := false
	o := NewObject(func() { destroyed = true })
	if o.Refs() != 1 {
		t.Fatalf("new object: refs=%d", o.Refs())
	}
	o.Get()
	if o.Refs() != 2 {
		t.Fatalf("refs = %d after Get", o.Refs())
	}
	o.Put()
	if destroyed {
		t.Fatal("destroyed too early")
	}
	o.Put()
	if !destroyed || o.Refs() != 0 {
		t.Fatalf("destructor did not run at zero (refs %d)", o.Refs())
	}
}

func TestObjectUnderflowPanics(t *testing.T) {
	o := NewObject(nil)
	o.Put()
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	o.Put()
}

func TestObjPtrUnique(t *testing.T) {
	a, b := NewObject(nil), NewObject(nil)
	if ObjPtr(a) == ObjPtr(b) {
		t.Fatal("object pointers collide")
	}
	if ObjPtr(a)&ObjVABase != ObjVABase {
		t.Fatalf("object pointer %#x outside object VA range", ObjPtr(a))
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	spec := &HelperSpec{
		ID:   100,
		Name: "test",
		Impl: func(*HelperCtx, [5]uint64) (uint64, error) { return 0, nil },
	}
	if err := r.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(spec); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := r.Register(&HelperSpec{ID: 101, Name: "noimpl"}); err == nil {
		t.Fatal("missing impl accepted")
	}
	got, ok := r.Lookup(100)
	if !ok || got.Name != "test" {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if got.Releases != 0 {
		t.Fatalf("Releases default = %d, want 0", got.Releases)
	}
	if _, ok := r.Lookup(999); ok {
		t.Fatal("phantom helper found")
	}
}

func TestKernelBaseHelpersRegistered(t *testing.T) {
	k := New()
	for _, id := range []int32{
		HelperMapLookup, HelperMapUpdate, HelperMapDelete,
		HelperKtimeGetNS, HelperPrandomU32,
		HelperSkLookup, HelperSkRelease,
		HelperKflexMalloc, HelperKflexFree,
		HelperKflexSpinLock, HelperKflexSpinUnlock, HelperKflexHeapBase,
		HelperPktLoadBytes, HelperPktStoreBytes,
	} {
		if _, ok := k.Helpers.Lookup(id); !ok {
			t.Errorf("base helper %d not registered", id)
		}
	}
	if len(k.Helpers.IDs()) < 14 {
		t.Errorf("IDs() = %d entries", len(k.Helpers.IDs()))
	}
	// Release contract of bpf_sk_release.
	rel, _ := k.Helpers.Lookup(HelperSkRelease)
	if rel.Releases != 1 {
		t.Errorf("sk_release Releases = %d", rel.Releases)
	}
	acq, _ := k.Helpers.Lookup(HelperSkLookup)
	if acq.Ret.Kind != RetAcquiredObj || acq.Ret.ObjKind != "sock" {
		t.Errorf("sk_lookup ret = %+v", acq.Ret)
	}
	// KFlex runtime API is flagged KFlexOnly (unavailable in eBPF mode).
	malloc, _ := k.Helpers.Lookup(HelperKflexMalloc)
	if !malloc.KFlexOnly {
		t.Error("kflex_malloc not marked KFlexOnly")
	}
}

func TestKernelClockMonotonic(t *testing.T) {
	k := New()
	a, b := k.Now(), k.Now()
	if b <= a {
		t.Fatalf("clock not monotonic: %d then %d", a, b)
	}
}

type fakeMap struct {
	kv map[string][]byte
}

func (m *fakeMap) KeySize() int   { return 4 }
func (m *fakeMap) ValueSize() int { return 8 }
func (m *fakeMap) Lookup(key []byte) []byte {
	return m.kv[string(key)]
}
func (m *fakeMap) Update(key, value []byte) error {
	m.kv[string(key)] = append([]byte(nil), value...)
	return nil
}
func (m *fakeMap) Delete(key []byte) bool {
	_, ok := m.kv[string(key)]
	delete(m.kv, string(key))
	return ok
}

func TestKernelMaps(t *testing.T) {
	k := New()
	m := &fakeMap{kv: map[string][]byte{}}
	if err := k.AddMap(9, m); err != nil {
		t.Fatal(err)
	}
	if err := k.AddMap(9, m); err == nil {
		t.Fatal("duplicate map ID accepted")
	}
	got, ok := k.Map(9)
	if !ok || got != Map(m) {
		t.Fatal("map lookup failed")
	}
}

// fakeEnv is an Env over in-memory Read/Write windows and a held-object
// map; the lock records and Cancelled are not reached by these tests.
type fakeEnv struct {
	Env
	mem  map[uint64][]byte
	held map[uint64]*Object
}

func (e *fakeEnv) Read(dst []byte, addr uint64) error {
	b, ok := e.mem[addr]
	if !ok || len(b) < len(dst) {
		return fmt.Errorf("bad read %#x+%d", addr, len(dst))
	}
	copy(dst, b)
	return nil
}

func (e *fakeEnv) Write(addr uint64, p []byte) error {
	e.mem[addr] = append([]byte(nil), p...)
	return nil
}

func (e *fakeEnv) PinValue(val []byte) uint64 {
	addr := uint64(0x9000_0000)
	e.mem[addr] = val
	return addr
}

func (e *fakeEnv) Hold(obj *Object, ptr uint64) { e.held[ptr] = obj }

func (e *fakeEnv) Unhold(ptr uint64) *Object {
	o := e.held[ptr]
	delete(e.held, ptr)
	return o
}

// helperEnv builds a minimal HelperCtx over a fakeEnv and returns its memory.
func helperEnv(k *Kernel) (*HelperCtx, map[uint64][]byte) {
	env := &fakeEnv{mem: map[uint64][]byte{}, held: map[uint64]*Object{}}
	return &HelperCtx{Kernel: k, Env: env}, env.mem
}

func TestMapHelpersEndToEnd(t *testing.T) {
	k := New()
	m := &fakeMap{kv: map[string][]byte{}}
	if err := k.AddMap(3, m); err != nil {
		t.Fatal(err)
	}
	hc, mem := helperEnv(k)
	mem[0x100] = []byte{1, 2, 3, 4}                 // key
	mem[0x200] = []byte{9, 8, 7, 6, 5, 4, 3, 2}     // value
	update, _ := k.Helpers.Lookup(HelperMapUpdate)  //nolint
	lookup, _ := k.Helpers.Lookup(HelperMapLookup)  //nolint
	deleteH, _ := k.Helpers.Lookup(HelperMapDelete) //nolint
	ret, err := update.Impl(hc, [5]uint64{3, 0x100, 0x200})
	if err != nil || ret != 0 {
		t.Fatalf("update: ret=%d err=%v", int64(ret), err)
	}
	ret, err = lookup.Impl(hc, [5]uint64{3, 0x100})
	if err != nil || ret == 0 {
		t.Fatalf("lookup: ret=%#x err=%v", ret, err)
	}
	if got := mem[ret]; string(got[:8]) != string([]byte{9, 8, 7, 6, 5, 4, 3, 2}) {
		t.Fatalf("pinned value = %v", got)
	}
	ret, err = deleteH.Impl(hc, [5]uint64{3, 0x100})
	if err != nil || ret != 0 {
		t.Fatalf("delete: ret=%d err=%v", int64(ret), err)
	}
	// Missing key paths.
	if ret, _ := lookup.Impl(hc, [5]uint64{3, 0x100}); ret != 0 {
		t.Fatal("lookup after delete should return null")
	}
	if ret, _ := deleteH.Impl(hc, [5]uint64{3, 0x100}); int64(ret) != -2 {
		t.Fatalf("double delete = %d, want -ENOENT", int64(ret))
	}
	// Unknown map ID errors.
	if _, err := lookup.Impl(hc, [5]uint64{77, 0x100}); err == nil {
		t.Fatal("unknown map accepted")
	}
}

type fakeEvent struct {
	data []byte
	sock *Object
}

func (e *fakeEvent) PacketData() []byte { return e.data }
func (e *fakeEvent) LookupUDP(tuple []byte) *Object {
	if e.sock != nil {
		return e.sock.Get()
	}
	return nil
}

// TestRuntimeHelpersWithoutHeap: a program that declared no heap gets a
// HelperCtx whose Heap, Alloc and Lock are nil, and every KFlex runtime
// helper that needs one of them fails with ErrNoHeap.
func TestRuntimeHelpersWithoutHeap(t *testing.T) {
	k := New()
	hc, _ := helperEnv(k)
	for _, id := range []int32{HelperKflexMalloc, HelperKflexFree, HelperKflexSpinLock, HelperKflexSpinUnlock, HelperKflexHeapBase} {
		spec, _ := k.Helpers.Lookup(id)
		if _, err := spec.Impl(hc, [5]uint64{64}); !errors.Is(err, ErrNoHeap) {
			t.Errorf("%s without a heap: err = %v, want ErrNoHeap", spec.Name, err)
		}
	}
}

func TestSkLookupAndRelease(t *testing.T) {
	k := New()
	hc, mem := helperEnv(k)
	sock := NewObject(nil)
	hc.Event = &fakeEvent{sock: sock}
	mem[0x300] = make([]byte, 12)

	lookup, _ := k.Helpers.Lookup(HelperSkLookup)
	ptr, err := lookup.Impl(hc, [5]uint64{0, 0x300, 12, 0, 0})
	if err != nil || ptr == 0 {
		t.Fatalf("lookup: %v %v", ptr, err)
	}
	if sock.Refs() != 2 {
		t.Fatalf("refs after lookup = %d", sock.Refs())
	}
	release, _ := k.Helpers.Lookup(HelperSkRelease)
	if _, err := release.Impl(hc, [5]uint64{ptr}); err != nil {
		t.Fatal(err)
	}
	if sock.Refs() != 1 {
		t.Fatalf("refs after release = %d", sock.Refs())
	}
	// Releasing an unheld pointer is a kernel bug -> error.
	if _, err := release.Impl(hc, [5]uint64{ptr}); err == nil {
		t.Fatal("double release accepted")
	}
	// Null lookup path.
	hc.Event = &fakeEvent{}
	ptr, err = lookup.Impl(hc, [5]uint64{0, 0x300, 12, 0, 0})
	if err != nil || ptr != 0 {
		t.Fatalf("null lookup: %v %v", ptr, err)
	}
}

func TestPacketHelpers(t *testing.T) {
	k := New()
	hc, mem := helperEnv(k)
	hc.Event = &fakeEvent{data: []byte("hello packet")}
	loadH, _ := k.Helpers.Lookup(HelperPktLoadBytes)
	storeH, _ := k.Helpers.Lookup(HelperPktStoreBytes)

	if ret, err := loadH.Impl(hc, [5]uint64{0, 6, 0x400, 6}); err != nil || ret != 0 {
		t.Fatalf("pkt load: %d %v", int64(ret), err)
	}
	if string(mem[0x400]) != "packet" {
		t.Fatalf("loaded %q", mem[0x400])
	}
	mem[0x500] = []byte("HELLO")
	if ret, err := storeH.Impl(hc, [5]uint64{0, 0, 0x500, 5}); err != nil || ret != 0 {
		t.Fatalf("pkt store: %d %v", int64(ret), err)
	}
	if string(hc.Event.(*fakeEvent).data[:5]) != "HELLO" {
		t.Fatalf("packet = %q", hc.Event.(*fakeEvent).data)
	}
	// Out-of-range offsets are -EINVAL, not faults.
	if ret, err := loadH.Impl(hc, [5]uint64{0, 100, 0x400, 6}); err != nil || int64(ret) != -22 {
		t.Fatalf("oob pkt load: %d %v", int64(ret), err)
	}
}

func TestHookFieldLookup(t *testing.T) {
	f, ok := HookXDP.Field(0, 4)
	if !ok || f.Name != "data_len" {
		t.Fatalf("Field(0,4) = %+v, %v", f, ok)
	}
	if _, ok := HookXDP.Field(2, 4); ok {
		t.Fatal("misaligned field access accepted")
	}
	if _, ok := HookXDP.Field(8, 4); ok {
		t.Fatal("out-of-ctx access accepted")
	}
	if _, ok := HookBench.Field(24, 8); !ok {
		t.Fatal("bench out field missing")
	}
	// Default returns encode hook policy (§4.3).
	if HookXDP.DefaultRet != XDPPass || HookLSM.DefaultRet == 0 {
		t.Error("default returns wrong")
	}
}
