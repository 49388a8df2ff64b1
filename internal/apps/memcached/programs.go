package memcached

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

// App-specific helper IDs and the BMC cache map ID.
const (
	helperMcParse int32 = 0x3001
	helperMcReply int32 = 0x3002
	bmcCacheMapID int32 = 40
)

// Parse-helper return encoding: op | valLen<<8. Op 3 is the out-of-band
// init request the harness sends once at setup.
const (
	mcOpNone = 0
	mcOpGet  = 1
	mcOpSet  = 2
	mcOpInit = 3
)

// RegisterHelpers installs the Memcached packet helpers: mc_parse decodes
// the request frame into stack buffers (the role Listing 1's check/get
// helpers play), and mc_reply builds the response frame from extension
// memory. Both are ordinary kernel helpers with verified contracts.
func RegisterHelpers(rt *kflex.Runtime) {
	r := rt.Kernel().Helpers
	if _, dup := r.Lookup(helperMcParse); dup {
		return
	}
	r.MustRegister(&kernel.HelperSpec{
		ID:   helperMcParse,
		Name: "mc_parse",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgStackBuf, Size: KeySize},   // key out
			{Kind: kernel.ArgStackBuf, Size: ValueSize}, // value out
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(*netsim.Packet)
			if !ok {
				return mcOpNone, nil
			}
			if len(pkt.Data) == 1 && pkt.Data[0] == 'i' {
				return mcOpInit, nil
			}
			op, key, value := ParseRequest(pkt.Data)
			if op == 0 {
				return mcOpNone, nil
			}
			if err := hc.Write(args[1], key); err != nil {
				return 0, err
			}
			if err := kvprog.WriteValue(hc, args[2], value); err != nil {
				return 0, err
			}
			return uint64(op) | uint64(len(value))<<8, nil
		},
	})
	r.MustRegister(&kernel.HelperSpec{
		ID:   helperMcReply,
		Name: "mc_reply",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgHeapAddr}, // value address (0: miss/stored)
			{Kind: kernel.ArgScalar},   // value length
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(*netsim.Packet)
			if !ok {
				return 0, nil
			}
			if args[1] == 0 {
				if len(pkt.Data) > 0 && pkt.Data[0] == 's' {
					pkt.Reply = append(pkt.Reply[:0], 'S')
				} else {
					pkt.Reply = append(pkt.Reply[:0], 'M')
				}
				return 0, nil
			}
			reply, err := kvprog.AppendValue(hc, append(pkt.Reply[:0], 'V'), args[1], args[2])
			if err != nil {
				return 0, err
			}
			pkt.Reply = reply
			return 0, nil
		},
	})
}

// bmcProgram is the BMC GET-only look-aside cache as a plain eBPF program
// (§5.1): parse, LRU-map lookup, serve hits at the hook, pass misses and
// every SET to the stack.
func bmcProgram() []insn.Instruction {
	b := asm.New()
	b.Mov(insn.R9, insn.R1) // ctx
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -int32(KeySize)+0)
	b.I(insn.Alu64Imm(insn.AluAdd, insn.R2, 0)) // keep key at fp-32
	b.Mov(insn.R3, insn.R10)
	b.Add(insn.R3, -(KeySize + ValueSize))
	b.Call(helperMcParse)
	b.I(insn.Alu64Imm(insn.AluAnd, insn.R0, 0xff))
	b.JmpImm(insn.JmpNe, insn.R0, mcOpGet, "pass") // only GETs are cached
	b.MovImm(insn.R1, int64(bmcCacheMapID))
	b.Mov(insn.R2, insn.R10)
	b.Add(insn.R2, -int32(KeySize))
	b.Call(kernel.HelperMapLookup)
	b.JmpImm(insn.JmpEq, insn.R0, 0, "pass") // miss
	b.Mov(insn.R6, insn.R0)
	b.Load(insn.R3, insn.R6, 0, 8) // value length
	b.Mov(insn.R1, insn.R9)
	b.Mov(insn.R2, insn.R6)
	b.Add(insn.R2, 8) // value bytes follow the length
	b.Call(helperMcReply)
	b.Ret(kernel.XDPTx)
	b.Label("pass")
	b.Ret(kernel.XDPPass)
	return b.MustAssemble()
}

// KFlex Memcached hash-table geometry comes from the shared kvprog builder;
// local aliases keep the co-design GC walker readable.
const (
	mcBuckets   = kvprog.Buckets
	mnNext      = kvprog.NodeNext
	mcGlobTable = kvprog.GlobTable
)

// kflexProgram is the full Memcached offload (§5.1): GETs and SETs both
// processed at the XDP hook against a heap hash table, with values
// allocated on demand by kflex_malloc. withLock wraps table operations in
// the shared spin lock for the co-designed deployment (§5.3).
func kflexProgram(withLock bool) []insn.Instruction {
	return kvprog.Build(kvprog.Options{
		ParseHelper: helperMcParse,
		ReplyHelper: helperMcReply,
		RetServed:   kernel.XDPTx,
		RetPass:     kernel.XDPPass,
		RetErr:      kernel.XDPDrop,
		WithLock:    withLock,
	})
}

// --- System 3: KFlex ------------------------------------------------------------------

// KFlexMC serves the full workload at the XDP hook.
type KFlexMC struct {
	cfg     Config
	ext     *kflex.Extension
	handles []*kflex.Handle
	fac     *reqFactory
	pkt     netsim.Packet
	ctx     []byte
	// Errors counts requests the extension failed to serve (cancelled
	// invocation or hard error); they are charged the user-space path.
	// Fallbacks counts those caused by degradation (kflex.ErrFallback).
	Errors    uint64
	Fallbacks uint64
	// Work accumulates the VM work counters of every successful Execute
	// (the pipeline benchmark reads insns/guards/dispatches per op).
	Work kflex.Stats
}

// NewKFlex loads the KFlex Memcached extension (§5.1). shared enables heap
// sharing with user space (required by the co-designed variant).
func NewKFlex(cfg Config, servers int, shared bool) (*KFlexMC, error) {
	rt := kflex.NewRuntime()
	RegisterHelpers(rt)
	ext, err := rt.Load(kflex.Spec{
		Name:            "kflex-memcached",
		Insns:           kflexProgram(shared),
		Hook:            kflex.HookXDP,
		Mode:            kflex.ModeKFlex,
		HeapSize:        64 << 20,
		ShareHeap:       shared,
		NumCPUs:         servers,
		FaultPlan:       cfg.FaultPlan,
		LocalCancel:     cfg.LocalCancel,
		CancelThreshold: cfg.CancelThreshold,
		Interpret:       cfg.Interpret,
	})
	if err != nil {
		return nil, err
	}
	k := &KFlexMC{cfg: cfg, ext: ext, fac: newReqFactory(cfg)}
	for i := 0; i < servers; i++ {
		k.handles = append(k.handles, ext.Handle(i))
	}
	if err := k.control('i'); err != nil {
		return nil, err
	}
	if cfg.Preload {
		if err := k.preload(); err != nil {
			return nil, err
		}
	}
	return k, nil
}

// control sends an out-of-band single-byte frame (init).
func (k *KFlexMC) control(op byte) error {
	pkt := &netsim.Packet{Data: []byte{op}}
	res, err := k.handles[0].Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		return err
	}
	if res.Ret != kernel.XDPTx {
		return fmt.Errorf("memcached: control %q returned %d", op, res.Ret)
	}
	return nil
}

func (k *KFlexMC) preload() error {
	for key := uint64(1); key <= workload.KeySpace; key++ {
		frame := EncodeSet(workload.FormatKey(key, KeySize), workload.FormatValue(key, k.cfg.ValueSize))
		pkt := &netsim.Packet{Data: frame}
		res, err := k.handles[0].Run(pkt, pkt.XDPCtx(0))
		if err != nil {
			return err
		}
		if res.Ret != kernel.XDPTx {
			return fmt.Errorf("memcached: preload SET returned %d", res.Ret)
		}
	}
	return nil
}

// Execute runs one frame through the extension and returns the reply and
// the modeled execution cost.
func (k *KFlexMC) Execute(cpu int, frame []byte) ([]byte, float64, error) {
	k.pkt.Data = frame
	k.pkt.Reply = k.pkt.Reply[:0]
	if k.ctx == nil {
		k.ctx = make([]byte, kernel.HookXDP.CtxSize)
	}
	binary.LittleEndian.PutUint32(k.ctx[0:], uint32(len(frame)))
	res, err := k.handles[cpu%len(k.handles)].Run(&k.pkt, k.ctx)
	if err != nil {
		return nil, 0, err
	}
	if res.Ret != kernel.XDPTx {
		return nil, 0, fmt.Errorf("memcached: extension returned %d", res.Ret)
	}
	k.Work.Add(res.Stats)
	return k.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), nil
}

// Worker is a per-goroutine executor bound to one simulated CPU: it owns
// its packet buffer, hook context, and work counters, so concurrent
// workers on distinct CPUs share nothing on the per-op path (§3.3's
// per-CPU exclusivity). Obtain one per serving goroutine with
// KFlexMC.Worker; a Worker itself must not be shared across goroutines.
type Worker struct {
	h   *kflex.Handle
	pkt netsim.Packet
	ctx []byte
	// Errors and Fallbacks count failed invocations (Fallbacks the subset
	// caused by degradation); Work accumulates VM counters per success.
	Errors    uint64
	Fallbacks uint64
	Work      kflex.Stats
}

// Worker returns a private executor for the given CPU.
func (k *KFlexMC) Worker(cpu int) *Worker {
	return &Worker{
		h:   k.handles[cpu%len(k.handles)],
		ctx: make([]byte, kernel.HookXDP.CtxSize),
	}
}

// Execute runs one frame on the worker's CPU and returns the reply and the
// modeled execution cost. The reply buffer is reused across calls.
func (w *Worker) Execute(frame []byte) ([]byte, float64, error) {
	w.pkt.Data = frame
	w.pkt.Reply = w.pkt.Reply[:0]
	binary.LittleEndian.PutUint32(w.ctx[0:], uint32(len(frame)))
	res, err := w.h.Run(&w.pkt, w.ctx)
	if err != nil {
		w.Errors++
		if errors.Is(err, kflex.ErrFallback) {
			w.Fallbacks++
		}
		return nil, 0, err
	}
	if res.Ret != kernel.XDPTx {
		w.Errors++
		return nil, 0, fmt.Errorf("memcached: extension returned %d", res.Ret)
	}
	w.Work.Add(res.Stats)
	return w.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), nil
}

// WorkStats returns the worker's accumulated VM work counters.
func (w *Worker) WorkStats() kflex.Stats { return w.Work }

// Serve implements sim.System. A failed extension invocation (cancelled
// mid-request, or refused after degradation) is re-served on the user-space
// path — the paper's offload-miss handling (§5) — and counted in Errors.
func (k *KFlexMC) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req, frame := k.fac.next()
	_, extNs, err := k.Execute(cpu, frame)
	if err != nil {
		k.Errors++
		if errors.Is(err, kflex.ErrFallback) {
			k.Fallbacks++
		}
		path := k.cfg.Costs.UserspaceUDP()
		if req.Op == workload.OpSet {
			path = k.cfg.Costs.UserspaceTCP()
		}
		return sim.Service{Ns: path}
	}
	path := k.cfg.Costs.XDPUDP()
	if req.Op == workload.OpSet {
		path = k.cfg.Costs.XDPTCPFast() // SETs ride KFlex's TCP fast path
	}
	return sim.Service{Ns: extNs + path}
}

// Name implements the labeled system.
func (k *KFlexMC) Name() string { return "KFlex" }

// WorkStats returns the accumulated VM work counters.
func (k *KFlexMC) WorkStats() kflex.Stats { return k.Work }

// ResetWork clears the accumulated counters (benchmark warmup).
func (k *KFlexMC) ResetWork() { k.Work = kflex.Stats{} }

// Close releases the extension.
func (k *KFlexMC) Close() { k.ext.Close() }

// Ext exposes the loaded extension (report inspection).
func (k *KFlexMC) Ext() *kflex.Extension { return k.ext }

// --- System 4: co-design (§5.3) -----------------------------------------------------

// CoDesign wraps the KFlex server with a user-space garbage-collection
// thread that scans the shared hash table every second while holding the
// shared spin lock; requests arriving during a scan wait for it.
type CoDesign struct {
	*KFlexMC
	// GCInterval is the paper's 1 s background cadence.
	GCInterval float64
	gcEnd      float64
	nextGC     float64
	// GCRuns and GCEntries report the background work performed.
	GCRuns    uint64
	GCEntries uint64
	// gcNs is the measured duration of one real scan over the user view.
	gcNs float64
}

// NewCoDesign loads the lock-protected extension variant with a shared heap.
func NewCoDesign(cfg Config, servers int) (*CoDesign, error) {
	k, err := NewKFlex(cfg, servers, true)
	if err != nil {
		return nil, err
	}
	c := &CoDesign{KFlexMC: k, GCInterval: 1e9}
	c.nextGC = c.GCInterval
	// Calibrate: run one real GC pass and time it.
	t0 := time.Now()
	n, err := c.RunGC()
	if err != nil {
		return nil, err
	}
	c.gcNs = float64(time.Since(t0).Nanoseconds())
	c.GCEntries = 0
	c.GCRuns = 0
	_ = n
	return c, nil
}

// RunGC performs one real scan of the shared hash table from user space:
// it walks every bucket chain through the user mapping, exactly as §5.3's
// garbage collector accesses "Memcached's hash table defined in the
// extension's heap" via shared pointers.
func (c *CoDesign) RunGC() (entries uint64, err error) {
	uv, err := c.ext.UserView()
	if err != nil {
		return 0, err
	}
	tableOff, err := uv.Load(uv.Base()+mcGlobTable, 8)
	if err != nil {
		return 0, err
	}
	for i := 0; i < mcBuckets; i++ {
		// Bucket entries were stored by the extension with
		// translate-on-store, so they are valid user VAs already.
		ptr, err := uv.Load(uv.Base()+tableOff+uint64(i*8), 8)
		if err != nil {
			return entries, err
		}
		for ptr != 0 {
			entries++
			ptr, err = uv.Load(ptr+mnNext, 8)
			if err != nil {
				return entries, err
			}
		}
	}
	c.GCRuns++
	c.GCEntries += entries
	return entries, nil
}

// Serve implements sim.System: the fast path matches KFlex, plus the
// periodic GC pause contending on the shared lock.
func (c *CoDesign) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	var gcWait float64
	if now >= c.nextGC {
		// The GC thread wakes up, takes the lock, and scans.
		c.nextGC = now + c.GCInterval
		c.gcEnd = now + c.gcNs
	}
	if now < c.gcEnd {
		gcWait = c.gcEnd - now // lock held by the collector
	}
	svc := c.KFlexMC.Serve(cpu, now, seq, rng)
	svc.Ns += gcWait
	return svc
}

// Name implements the labeled system.
func (c *CoDesign) Name() string { return "KFlex co-designed" }
