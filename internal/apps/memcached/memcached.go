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
// All four parse the same wire protocol and serve the same Zipfian
// workload; the paper's performance differences come from which kernel
// path stages each avoids and the per-request processing work, both of
// which are exercised for real here (extensions execute their verified,
// instrumented bytecode; the user-space server is timed executing native
// code).
package memcached

import (
	"encoding/binary"
	"math/rand"
	"time"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/kernel"
	"kflex/internal/maps"
	"kflex/internal/netsim"
	"kflex/internal/sim"
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
	PathNs: func(c netsim.PathCosts, set, offloaded bool) float64 {
		switch {
		case offloaded && set:
			return c.XDPTCPFast()
		case offloaded:
			return c.XDPUDP()
		case set:
			return c.UserspaceTCP()
		}
		return c.UserspaceUDP()
	},
}

// --- Shared harness pieces ---------------------------------------------------------

// Config parameterizes one Memcached system instance for the simulation.
type Config = offload.Config

// DefaultConfig mirrors §5.1 with 64 B values.
func DefaultConfig(mix workload.Mix) Config {
	return Config{Mix: mix, ValueSize: ValueSize, Seed: 7, Costs: netsim.DefaultCosts(), Preload: true}
}

// --- System 1: user space ------------------------------------------------------------

// UserSpace is the baseline server.
type UserSpace struct {
	cfg   Config
	store *offload.Store
	fac   *offload.ReqFactory
	reply []byte
}

// NewUserSpace builds and optionally preloads the baseline.
func NewUserSpace(cfg Config) *UserSpace {
	u := &UserSpace{cfg: cfg, store: offload.NewStore(), fac: Codec.NewReqFactory(cfg), reply: make([]byte, 0, 128)}
	if cfg.Preload {
		offload.Preload(u.store, cfg.ValueSize)
	}
	return u
}

// Serve implements sim.System: the handler runs natively and is timed; the
// path cost is the full user-space stack (GETs over UDP, SETs over TCP,
// matching BMC's deployment model).
func (u *UserSpace) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req, frame := u.fac.Next()
	t0 := time.Now()
	u.reply = Codec.Handle(u.store, frame, u.reply)
	work := float64(time.Since(t0).Nanoseconds())
	return sim.Service{Ns: work + Codec.PathNs(u.cfg.Costs, req.Op == workload.OpSet, false)}
}

// Name implements the labeled system.
func (u *UserSpace) Name() string { return "User space" }

// --- System 2: BMC ---------------------------------------------------------------------

// BMC runs the eBPF look-aside cache in front of the user-space server.
type BMC struct {
	cfg   Config
	store *offload.Store
	cache *maps.LRU
	ext   *kflex.Extension
	fac   *offload.ReqFactory
	reply []byte
	// Hits and Misses count cache outcomes for reporting.
	Hits, Misses uint64
	// Errors counts extension invocations that failed outright; the
	// request is then served on the user-space path like a miss.
	Errors uint64
}

// BMCCacheEntries sizes the preallocated cache (BMC preallocates; it cannot
// grow, which is the paper's flexibility point).
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
	b := &BMC{cfg: cfg, store: offload.NewStore(), cache: cache, ext: ext, fac: Codec.NewReqFactory(cfg), reply: make([]byte, 0, 128)}
	if cfg.Preload {
		offload.Preload(b.store, cfg.ValueSize)
	}
	return b, nil
}

// Serve implements sim.System. GETs run the eBPF program at XDP: hits are
// served there; misses fall through the full stack to user space, which
// also fills the cache (BMC's architecture). SETs bypass the cache (BMC
// cannot offload them) and invalidate the entry.
func (b *BMC) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req, frame := b.fac.Next()
	h := b.ext.Handle(cpu)
	pkt := &netsim.Packet{Data: frame}
	if req.Op == workload.OpGet {
		res, err := h.Run(pkt, pkt.XDPCtx(0))
		if err != nil {
			// The hook failed outright (e.g. the extension was unloaded):
			// serve on the user-space path, exactly like a cache miss.
			b.Errors++
			b.Misses++
			t0 := time.Now()
			b.reply = Codec.Handle(b.store, frame, b.reply)
			work := float64(time.Since(t0).Nanoseconds())
			return sim.Service{Ns: work + b.cfg.Costs.UserspaceUDP()}
		}
		extNs := netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls)
		if res.Ret == kernel.XDPTx { // cache hit, served at the hook
			b.Hits++
			return sim.Service{Ns: extNs + b.cfg.Costs.XDPUDP()}
		}
		// Miss: full user-space path plus the wasted XDP pass, plus
		// the cache fill.
		b.Misses++
		t0 := time.Now()
		b.reply = Codec.Handle(b.store, frame, b.reply)
		if len(b.reply) > 1 && b.reply[0] == 'V' {
			_, key, _ := ParseRequest(frame)
			b.fillCache(key, b.reply[1:])
		}
		work := float64(time.Since(t0).Nanoseconds())
		return sim.Service{Ns: extNs + work + b.cfg.Costs.UserspaceUDP() + b.cfg.Costs.BMCMissExtra()}
	}
	// SET: user space only; invalidate the cached entry.
	t0 := time.Now()
	b.reply = Codec.Handle(b.store, frame, b.reply)
	_, key, _ := ParseRequest(frame)
	b.cache.Delete(key)
	work := float64(time.Since(t0).Nanoseconds())
	return sim.Service{Ns: work + b.cfg.Costs.UserspaceTCP()}
}

func (b *BMC) fillCache(key, value []byte) {
	entry := make([]byte, 8+b.cfg.ValueSize)
	binary.LittleEndian.PutUint64(entry, uint64(len(value)))
	copy(entry[8:], value)
	_ = b.cache.Update(key, entry)
}

// Name implements the labeled system.
func (b *BMC) Name() string { return "BMC" }

// Close releases the extension.
func (b *BMC) Close() { b.ext.Close() }
