package kernel

import (
	"fmt"
	"math/rand"
	"sync"
)

// Helper IDs. The low numbers match their eBPF counterparts; the 0x1000
// block is the KFlex runtime API of Table 2; the 0x2000 block is the
// packet-access interface extensions use instead of direct packet pointers.
const (
	HelperMapLookup  int32 = 1
	HelperMapUpdate  int32 = 2
	HelperMapDelete  int32 = 3
	HelperKtimeGetNS int32 = 5
	HelperPrandomU32 int32 = 7
	HelperSkLookup   int32 = 84
	HelperSkRelease  int32 = 86

	HelperKflexMalloc     int32 = 0x1001
	HelperKflexFree       int32 = 0x1002
	HelperKflexSpinLock   int32 = 0x1003
	HelperKflexSpinUnlock int32 = 0x1004
	HelperKflexHeapBase   int32 = 0x1005

	HelperPktLoadBytes  int32 = 0x2001
	HelperPktStoreBytes int32 = 0x2002
)

// Special ArgStackBuf sizes resolved against the map named by the preceding
// ArgMapID argument.
const (
	SizeMapKey   = -1
	SizeMapValue = -2
)

// ErrNoHeap is returned by KFlex runtime helpers when the program declared
// no extension heap.
var ErrNoHeap = fmt.Errorf("kernel: extension declared no heap")

// UDPLookups is implemented by hook event payloads that can resolve UDP
// sockets; bpf_sk_lookup_udp consults it (netsim packets implement it).
type UDPLookups interface {
	// LookupUDP returns a referenced socket object for the tuple bytes,
	// or nil. The returned reference belongs to the caller.
	LookupUDP(tuple []byte) *Object
}

// PacketBytes is implemented by hook event payloads carrying packet data;
// the 0x2000 helpers read and write through it.
type PacketBytes interface {
	PacketData() []byte
}

func registerBaseHelpers(k *Kernel) {
	r := k.Helpers

	r.MustRegister(&HelperSpec{
		ID:   HelperMapLookup,
		Name: "bpf_map_lookup_elem",
		Args: []Arg{
			{Kind: ArgMapID},
			{Kind: ArgStackBuf, Size: SizeMapKey, Init: true},
		},
		Ret: Ret{Kind: RetMapValue},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			m, key, err := mapAndKey(hc, args)
			if err != nil {
				return 0, err
			}
			val := m.Lookup(key)
			if val == nil {
				return 0, nil
			}
			return hc.PinValue(val), nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:   HelperMapUpdate,
		Name: "bpf_map_update_elem",
		Args: []Arg{
			{Kind: ArgMapID},
			{Kind: ArgStackBuf, Size: SizeMapKey, Init: true},
			{Kind: ArgStackBuf, Size: SizeMapValue, Init: true},
		},
		Ret: Ret{Kind: RetScalar},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			m, key, err := mapAndKey(hc, args)
			if err != nil {
				return 0, err
			}
			val := make([]byte, m.ValueSize()) // the map may keep it
			if err := hc.Read(val, args[2]); err != nil {
				return 0, err
			}
			if err := m.Update(key, val); err != nil {
				return negErrno(12), nil // -ENOMEM
			}
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:   HelperMapDelete,
		Name: "bpf_map_delete_elem",
		Args: []Arg{
			{Kind: ArgMapID},
			{Kind: ArgStackBuf, Size: SizeMapKey, Init: true},
		},
		Ret: Ret{Kind: RetScalar},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			m, key, err := mapAndKey(hc, args)
			if err != nil {
				return 0, err
			}
			if !m.Delete(key) {
				return negErrno(2), nil // -ENOENT
			}
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:   HelperKtimeGetNS,
		Name: "bpf_ktime_get_ns",
		Ret:  Ret{Kind: RetScalar},
		Impl: func(hc *HelperCtx, _ [5]uint64) (uint64, error) {
			return hc.Kernel.Now(), nil
		},
	})

	var rngMu sync.Mutex
	rng := rand.New(rand.NewSource(1))
	r.MustRegister(&HelperSpec{
		ID:   HelperPrandomU32,
		Name: "bpf_get_prandom_u32",
		Ret:  Ret{Kind: RetScalar},
		Impl: func(*HelperCtx, [5]uint64) (uint64, error) {
			rngMu.Lock()
			defer rngMu.Unlock()
			return uint64(rng.Uint32()), nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:   HelperSkLookup,
		Name: "bpf_sk_lookup_udp",
		Args: []Arg{
			{Kind: ArgCtx},
			{Kind: ArgStackBuf, Size: 12, Init: true}, // bpf_sock_tuple.ipv4
			{Kind: ArgScalar},                         // tuple size
			{Kind: ArgScalar},                         // netns
			{Kind: ArgScalar},                         // flags
		},
		Ret: Ret{Kind: RetAcquiredObj, ObjKind: "sock"},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			lk, ok := hc.Event.(UDPLookups)
			if !ok {
				return 0, nil
			}
			var tuple [12]byte
			if err := hc.Read(tuple[:], args[1]); err != nil {
				return 0, err
			}
			obj := lk.LookupUDP(tuple[:])
			if obj == nil {
				return 0, nil
			}
			ptr := ObjPtr(obj)
			hc.Hold(obj, ptr)
			return ptr, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:       HelperSkRelease,
		Name:     "bpf_sk_release",
		Args:     []Arg{{Kind: ArgObj, ObjKind: "sock"}},
		Ret:      Ret{Kind: RetScalar},
		Releases: 1,
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			obj := hc.Unhold(args[0])
			if obj == nil {
				return 0, fmt.Errorf("kernel: bpf_sk_release of unheld pointer %#x", args[0])
			}
			obj.Put()
			return 0, nil
		},
	})

	// --- KFlex runtime API (Table 2) -----------------------------------

	r.MustRegister(&HelperSpec{
		ID:        HelperKflexMalloc,
		Name:      "kflex_malloc",
		Args:      []Arg{{Kind: ArgScalar}},
		Ret:       Ret{Kind: RetHeapPtr},
		KFlexOnly: true,
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			if hc.Alloc == nil {
				return 0, ErrNoHeap
			}
			return hc.Alloc.Malloc(hc.CPU, args[0]), nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:        HelperKflexFree,
		Name:      "kflex_free",
		Args:      []Arg{{Kind: ArgHeapAddr}},
		Ret:       Ret{Kind: RetScalar},
		KFlexOnly: true,
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			if hc.Alloc == nil {
				return 0, ErrNoHeap
			}
			if err := hc.Alloc.Free(hc.CPU, args[0]); err != nil {
				return negErrno(22), nil // -EINVAL: bad free is the extension's bug
			}
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:        HelperKflexSpinLock,
		Name:      "kflex_spin_lock",
		Args:      []Arg{{Kind: ArgHeapAddr}},
		Ret:       Ret{Kind: RetScalar},
		KFlexOnly: true,
		LockOp:    LockAcquire,
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			if hc.Lock == nil {
				return 0, ErrNoHeap
			}
			if !hc.Lock.Lock(args[0], hc.Env) {
				return 0, ErrCancelledInLock
			}
			hc.HoldLock(args[0])
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:        HelperKflexSpinUnlock,
		Name:      "kflex_spin_unlock",
		Args:      []Arg{{Kind: ArgHeapAddr}},
		Ret:       Ret{Kind: RetScalar},
		KFlexOnly: true,
		LockOp:    LockRelease,
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			if hc.Lock == nil {
				return 0, ErrNoHeap
			}
			if err := hc.Lock.Unlock(args[0]); err != nil {
				return 0, err
			}
			hc.ReleaseLock(args[0])
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:        HelperKflexHeapBase,
		Name:      "kflex_heap_base",
		Ret:       Ret{Kind: RetHeapPtr, NonNull: true},
		KFlexOnly: true,
		Impl: func(hc *HelperCtx, _ [5]uint64) (uint64, error) {
			if hc.Heap == nil {
				return 0, ErrNoHeap
			}
			return hc.Heap.Base(), nil
		},
	})

	// --- Packet access ---------------------------------------------------

	r.MustRegister(&HelperSpec{
		ID:   HelperPktLoadBytes,
		Name: "bpf_pkt_load_bytes",
		Args: []Arg{
			{Kind: ArgCtx},
			{Kind: ArgScalar}, // packet offset
			{Kind: ArgStackBuf, Size: 256, SizeArg: 4}, // destination buffer
			{Kind: ArgScalar},                          // length (constant)
		},
		Ret: Ret{Kind: RetScalar},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(PacketBytes)
			if !ok {
				return negErrno(22), nil
			}
			data := pkt.PacketData()
			off, n := args[1], args[3]
			if n > 256 || off > uint64(len(data)) || off+n > uint64(len(data)) {
				return negErrno(22), nil
			}
			if err := hc.Write(args[2], data[off:off+n]); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})

	r.MustRegister(&HelperSpec{
		ID:   HelperPktStoreBytes,
		Name: "bpf_pkt_store_bytes",
		Args: []Arg{
			{Kind: ArgCtx},
			{Kind: ArgScalar},
			{Kind: ArgStackBuf, Size: 256, SizeArg: 4, Init: true},
			{Kind: ArgScalar},
		},
		Ret: Ret{Kind: RetScalar},
		Impl: func(hc *HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(PacketBytes)
			if !ok {
				return negErrno(22), nil
			}
			data := pkt.PacketData()
			off, n := args[1], args[3]
			if n > 256 || off > uint64(len(data)) || off+n > uint64(len(data)) {
				return negErrno(22), nil
			}
			if err := hc.Read(data[off:off+n], args[2]); err != nil {
				return 0, err
			}
			return 0, nil
		},
	})
}

// ErrCancelledInLock aborts a spin-lock acquisition that was interrupted by
// extension cancellation (§3.4: waiters on a lock held by a preempted,
// non-cooperative user thread eventually stall and are cancelled).
var ErrCancelledInLock = fmt.Errorf("kernel: cancelled while spinning on lock")

// mapAndKey resolves the ArgMapID/key-pointer prefix shared by map helpers.
func mapAndKey(hc *HelperCtx, args [5]uint64) (Map, []byte, error) {
	m, ok := hc.Kernel.Map(int32(args[0]))
	if !ok {
		return nil, nil, fmt.Errorf("kernel: no map with ID %d", int32(args[0]))
	}
	key := make([]byte, m.KeySize()) // the map may keep it
	if err := hc.Read(key, args[1]); err != nil {
		return nil, nil, err
	}
	return m, key, nil
}

// negErrno encodes -errno as the uint64 the eBPF calling convention uses.
func negErrno(errno int64) uint64 { return uint64(-errno) }
