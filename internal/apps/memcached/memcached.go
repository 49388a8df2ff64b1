// Package memcached implements the three Memcached deployments compared in
// the paper's §5.1 plus the co-designed variant of §5.3:
//
//   - UserSpace: the baseline server running entirely in user space, paying
//     the full kernel network stack and a context switch per request;
//   - BMC: the eBPF-based look-aside cache (NSDI'21) that serves GET hits
//     at the XDP hook but cannot offload SETs (no dynamic allocation in
//     eBPF) and falls back to user space on misses;
//   - KFlex: both GETs and SETs handled entirely at XDP, with the hash
//     table and values allocated on demand from the extension heap and
//     SETs carried over KFlex's TCP fast path;
//   - CoDesign: the KFlex server sharing its heap with a user-space
//     garbage-collection thread that scans the table every second under a
//     shared spin lock (§5.3).
//
// All four serve the same Zipfian workload; the paper's performance
// differences come from which kernel path stages each avoids and the
// per-request processing work. Both are modelled (internal/netsim):
// extensions execute their verified, instrumented bytecode and are charged
// its counted instructions and helper calls; the user-space handler is
// charged a constant calibrated from a Go benchmark of the real handler.
package memcached

import (
	"encoding/binary"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/kernel"
	"kflex/internal/maps"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// Sizes used by the evaluation (§5.1): 32 B keys; 64 B values normally,
// 32 B when BMC participates (BMC cannot store values larger than keys).
const (
	KeySize      = kvprog.KeySize
	ValueSize    = kvprog.ValueSize
	ValueSizeBMC = 32
)

// --- Wire protocol ---------------------------------------------------------------

// EncodeGet builds a GET request frame: 'g' + key bytes.
func EncodeGet(key []byte) []byte { return appendGet(make([]byte, 0, 1+len(key)), key) }

// EncodeSet builds a SET request frame: 's' + klen(1) + key + value.
func EncodeSet(key, value []byte) []byte {
	return appendSet(make([]byte, 0, 2+len(key)+len(value)), key, value)
}

func appendGet(dst, key []byte) []byte { return append(append(dst, 'g'), key...) }

func appendSet(dst, key, value []byte) []byte {
	return append(append(append(dst, 's', byte(len(key))), key...), value...)
}

// ParseRequest decodes a frame. It returns op (kvprog.OpGet/OpSet), the key
// and the value (nil for GETs), or op 0 (kvprog.OpNone) for malformed
// frames — a SET whose value exceeds ValueSize among them
// (offload.Codec.Parse's rule).
func ParseRequest(frame []byte) (op int, key, value []byte) {
	if len(frame) < 1+KeySize {
		return 0, nil, nil
	}
	switch frame[0] {
	case 'g':
		return kvprog.OpGet, frame[1 : 1+KeySize], nil
	case 's':
		klen := int(frame[1])
		if klen != KeySize || len(frame) < 2+klen || len(frame) > 2+klen+ValueSize {
			return 0, nil, nil
		}
		return kvprog.OpSet, frame[2 : 2+klen], frame[2+klen:]
	}
	return 0, nil, nil
}

// Codec is Memcached as the shared offload front end sees it: the wire
// format above at the XDP hook, and BMC's deployment model for path costs
// (GETs over UDP, SETs over TCP — at the hook, KFlex's TCP fast path).
var Codec = offload.Codec{
	Name: "memcached",
	Hook: kflex.HookXDP,
	Prog: kvprog.Options{
		ParseHelper: helperMcParse,
		ReplyHelper: helperMcReply,
		FillHelper:  helperMcFill,
		RetServed:   kernel.XDPTx,
		RetPass:     kernel.XDPPass,
		RetErr:      kernel.XDPDrop,
	},
	Parse:     ParseRequest,
	IsSet:     func(frame []byte) bool { return frame[0] == 's' },
	AppendGet: appendGet,
	AppendSet: appendSet,
	HitHeader: func(dst []byte, n int) []byte { return append(dst, 'V') },
	Miss:      "M",
	Stored:    "S",
	Err:       "E",
	PathNs: func(set, offloaded bool) float64 {
		switch {
		case offloaded && set:
			return netsim.XDPTCPFast
		case offloaded:
			return netsim.XDPUDP
		case set:
			return netsim.UserspaceTCP + netsim.McSetNs
		}
		return netsim.UserspaceUDP + netsim.McGetNs
	},
}

// --- Shared harness pieces ---------------------------------------------------------

// Config parameterizes one Memcached system instance for the simulation.
type Config = offload.Config

// DefaultConfig mirrors §5.1 with 64 B values.
func DefaultConfig(mix workload.Mix) Config {
	return Config{Mix: mix, ValueSize: ValueSize, Seed: 7, Preload: true}
}

// --- System 1: user space ------------------------------------------------------------

// UserSpace is the baseline server: GETs over UDP and SETs over TCP
// (BMC's deployment model), each paying the full user-space stack and the
// handler's calibrated work (netsim.McGetNs, McSetNs).
type UserSpace = offload.UserSpace

// NewUserSpace builds the baseline.
func NewUserSpace(cfg Config) *UserSpace { return offload.NewUserSpace(&Codec, cfg) }

// --- System 2: BMC ---------------------------------------------------------------------

// BMC runs the eBPF look-aside cache in front of the user-space server.
type BMC struct {
	cfg   Config
	store *offload.Store
	cache *maps.LRU
	ext   *kflex.Extension
	fac   *offload.ReqFactory
	// Errors counts extension invocations that failed outright; the
	// request is then served on the user-space path like a miss.
	Errors uint64
}

// BMCCacheEntries sizes the preallocated cache. An eBPF map's max_entries is
// fixed when it is created, so BMC's cache holds this many entries whatever
// the key space; the KFlex table (kvprog) is sized by the keys it is loaded
// with and doubles in bytecode as SETs add more — the paper's flexibility
// point.
const BMCCacheEntries = 16 << 10

// NewBMC loads the eBPF (ModeEBPF!) extension and builds the fallback path.
func NewBMC(cfg Config, servers int) (*BMC, error) {
	rt := kflex.NewRuntime()
	Codec.RegisterHelpers(rt)
	cache, err := rt.NewLRUMap(bmcCacheMapID, BMCCacheEntries, KeySize, 8+cfg.ValueSize)
	if err != nil {
		return nil, err
	}
	ext, err := rt.Load(kflex.Spec{
		Name:    "bmc",
		Insns:   bmcProgram(),
		Hook:    kflex.HookXDP,
		Mode:    kflex.ModeEBPF, // BMC is plain eBPF: no heap, no KFlex runtime
		NumCPUs: servers,
	})
	if err != nil {
		return nil, err
	}
	b := &BMC{cfg: cfg, store: offload.NewStore(), cache: cache, ext: ext, fac: Codec.NewReqFactory(cfg)}
	if cfg.Preload {
		offload.Preload(b.store, cfg.ValueSize)
	}
	return b, nil
}

// Serve implements sim.System. GETs run the eBPF program at XDP: hits are
// served there; misses fall through the full stack to user space, which
// also fills the cache (BMC's architecture). SETs bypass the cache (BMC
// cannot offload them) and invalidate the entry. User space touches its
// store only where the result decides a later hit — a SET's write and a
// miss's cache fill — and is charged the handler's calibrated cost.
func (b *BMC) Serve(cpu int, now float64) float64 {
	req, frame := b.fac.Next()
	_, key, value := ParseRequest(frame)
	if req.Op == workload.OpSet {
		b.store.Set(key, value)
		b.cache.Delete(key)
		return Codec.PathNs(true, false)
	}
	pkt := &netsim.Packet{Data: frame}
	res, err := b.ext.Handle(cpu).Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		// The hook failed outright (e.g. the extension was unloaded):
		// serve on the user-space path, exactly like a cache miss.
		b.Errors++
		return Codec.PathNs(false, false)
	}
	extNs := netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls)
	if res.Ret == kernel.XDPTx { // cache hit, served at the hook
		return extNs + Codec.PathNs(false, true)
	}
	// Miss: full user-space path plus the wasted XDP pass, plus the cache
	// fill.
	if v := b.store.Get(key); v != nil {
		b.fillCache(key, v)
	}
	return extNs + Codec.PathNs(false, false) + netsim.BMCMissExtra
}

func (b *BMC) fillCache(key, value []byte) {
	entry := make([]byte, 8+b.cfg.ValueSize)
	binary.LittleEndian.PutUint64(entry, uint64(len(value)))
	copy(entry[8:], value)
	_ = b.cache.Update(key, entry)
}

// Close releases the extension.
func (b *BMC) Close() { b.ext.Close() }
