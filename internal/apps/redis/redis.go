// Package redis implements the Redis deployments of §5.1 and §5.2:
//
//   - KeyDB: the multi-threaded user-space baseline (Redis itself is
//     single-threaded; the paper compares against KeyDB for fairness),
//     paying the full TCP stack plus a context switch per request;
//   - KFlex: GET/SET processed by an extension at the sk_skb hook — all
//     requests still traverse the kernel TCP stack (§5.1 explains this is
//     why Redis's speedup is smaller than Memcached's), but skip the
//     socket wakeup, context switch, and reply syscall;
//   - ZAdd systems (Figure 6): single-threaded ZADD processing, user space
//     under Redis's global hash-table lock vs. the KFlex extension that
//     combines a member table with a heap-allocated skip list.
//
// Requests use a RESP-style wire encoding parsed for real by both sides.
package redis

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/ds"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

// Key/value geometry matches §5: 32 B keys, 64 B values.
const (
	KeySize   = kvprog.KeySize
	ValueSize = kvprog.ValueSize
)

// Helper IDs for the Redis wire format.
const (
	helperRespParse int32 = 0x3101
	helperRespReply int32 = 0x3102
)

// --- RESP wire format --------------------------------------------------------------

// EncodeCommand renders a RESP array of bulk strings.
func EncodeCommand(args ...[]byte) []byte {
	out := []byte(fmt.Sprintf("*%d\r\n", len(args)))
	for _, a := range args {
		out = append(out, fmt.Sprintf("$%d\r\n", len(a))...)
		out = append(out, a...)
		out = append(out, '\r', '\n')
	}
	return out
}

// ParseCommand decodes a RESP array of bulk strings.
func ParseCommand(frame []byte) ([][]byte, error) { return parseCommand(frame, nil) }

// parseCommand is ParseCommand appending the bulk strings to args, so a
// caller on the request path can supply stack storage and parse without
// allocating.
func parseCommand(frame []byte, args [][]byte) ([][]byte, error) {
	if len(frame) < 4 || frame[0] != '*' {
		return nil, fmt.Errorf("redis: not a RESP array")
	}
	pos := 1
	readLine := func() ([]byte, error) {
		start := pos
		for pos+1 < len(frame) {
			if frame[pos] == '\r' && frame[pos+1] == '\n' {
				line := frame[start:pos]
				pos += 2
				return line, nil
			}
			pos++
		}
		return nil, fmt.Errorf("redis: unterminated line")
	}
	nLine, err := readLine()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(nLine))
	if err != nil || n < 1 || n > 16 {
		return nil, fmt.Errorf("redis: bad array length %q", nLine)
	}
	args = slices.Grow(args[:0], n)
	for i := 0; i < n; i++ {
		if pos >= len(frame) || frame[pos] != '$' {
			return nil, fmt.Errorf("redis: expected bulk string")
		}
		pos++
		lLine, err := readLine()
		if err != nil {
			return nil, err
		}
		l, err := strconv.Atoi(string(lLine))
		if err != nil || l < 0 || pos+l+2 > len(frame) {
			return nil, fmt.Errorf("redis: bad bulk length %q", lLine)
		}
		args = append(args, frame[pos:pos+l])
		pos += l + 2
	}
	return args, nil
}

// --- KeyDB: the multi-threaded user-space baseline ----------------------------------

const shards = 16

// KeyDB is the user-space server.
type KeyDB struct {
	cfg    Config
	shards [shards]struct {
		mu sync.Mutex
		kv map[string][]byte
	}
	fac   *reqFactory
	reply []byte
}

// Config parameterizes one Redis system.
type Config struct {
	Mix   workload.Mix
	Seed  int64
	Costs netsim.PathCosts
	// Preload fills every key before measuring.
	Preload bool
	// FaultPlan attaches deterministic fault injection to the KFlex
	// variants' runtimes (chaos testing); nil in normal runs.
	FaultPlan *faultinject.Plan
	// LocalCancel scopes injected cancellations to single invocations so
	// the server survives them (§4.3).
	LocalCancel bool
	// CancelThreshold auto-unloads the extension after this many
	// cancellations; Serve then takes the user-space fallback path.
	CancelThreshold uint64
	// Interpret runs the KFlex extension on the reference interpreter
	// instead of the lowered tier (differential testing and the
	// interpreter side of the pipeline benchmark).
	Interpret bool
	// Durable, when set, replaces KeyDB as the supervised deployment's
	// authoritative store with a WAL-backed durable store: acknowledged
	// writes survive process crashes and are replayed on reopen.
	Durable *durable.Store
	// Slots sizes the extension's physical handle-slot table for the
	// supervised deployment. It defaults to the server count; declaring
	// more leaves free slots as live-migration targets
	// (supervisor.Migrate).
	Slots int
	// HeapSize overrides the supervised deployment's extension heap size
	// in bytes (default 64 MiB).
	HeapSize uint64
}

// DefaultConfig mirrors §5.1.
func DefaultConfig(mix workload.Mix) Config {
	return Config{Mix: mix, Seed: 11, Costs: netsim.DefaultCosts(), Preload: true}
}

type reqFactory struct {
	gen *workload.Generator
}

func (f *reqFactory) next() (workload.Request, []byte) {
	req := f.gen.Next()
	key := workload.FormatKey(req.Key, KeySize)
	if req.Op == workload.OpSet {
		return req, EncodeCommand([]byte("SET"), key, workload.FormatValue(req.Value, ValueSize))
	}
	return req, EncodeCommand([]byte("GET"), key)
}

// NewKeyDB builds and optionally preloads the baseline.
func NewKeyDB(cfg Config) *KeyDB {
	k := &KeyDB{cfg: cfg, fac: &reqFactory{gen: workload.NewGenerator(cfg.Seed, cfg.Mix)}}
	for i := range k.shards {
		k.shards[i].kv = make(map[string][]byte)
	}
	if cfg.Preload {
		for key := uint64(1); key <= workload.KeySpace; key++ {
			k.set(workload.FormatKey(key, KeySize), workload.FormatValue(key, ValueSize))
		}
	}
	return k
}

func (k *KeyDB) shardOf(key []byte) *struct {
	mu sync.Mutex
	kv map[string][]byte
} {
	var h uint64
	for _, b := range key {
		h = h*131 + uint64(b)
	}
	return &k.shards[h%shards]
}

func (k *KeyDB) set(key, value []byte) {
	sh := k.shardOf(key)
	sh.mu.Lock()
	sh.kv[string(key)] = append([]byte(nil), value...)
	sh.mu.Unlock()
}

// Set stores a copy of value under key.
func (k *KeyDB) Set(key, value []byte) { k.set(key, value) }

// Get returns the stored value bytes or nil.
func (k *KeyDB) Get(key []byte) []byte {
	sh := k.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.kv[string(key)]
}

// Range visits every key/value pair in sorted key order. Deterministic
// iteration matters to the supervised deployment: a reload resync replays
// the store into the fresh heap, and a stable order keeps the
// fault-injection trace reproducible across runs.
func (k *KeyDB) Range(fn func(key, value []byte) error) error {
	keys := make([]string, 0, 1024)
	for i := range k.shards {
		sh := &k.shards[i]
		sh.mu.Lock()
		for key := range sh.kv {
			keys = append(keys, key)
		}
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	for _, key := range keys {
		if v := k.Get([]byte(key)); v != nil {
			if err := fn([]byte(key), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// KV is the store contract the supervised deployment serves from: both
// *KeyDB and the WAL-backed *durable.Store satisfy it. Range must visit
// keys in sorted order so reload resyncs are deterministic.
type KV interface {
	Get(key []byte) []byte
	Set(key, value []byte)
	Range(fn func(key, value []byte) error) error
}

// HandleRESP processes one RESP GET/SET frame against any KV store.
func HandleRESP(kv KV, frame []byte, reply []byte) []byte {
	args, err := ParseCommand(frame)
	if err != nil || len(args) < 2 {
		return append(reply[:0], "-ERR\r\n"...)
	}
	switch string(args[0]) {
	case "GET":
		v := kv.Get(args[1])
		if v == nil {
			return append(reply[:0], "$-1\r\n"...)
		}
		reply = append(reply[:0], fmt.Sprintf("$%d\r\n", len(v))...)
		reply = append(reply, v...)
		return append(reply, '\r', '\n')
	case "SET":
		if len(args) < 3 {
			return append(reply[:0], "-ERR\r\n"...)
		}
		kv.Set(args[1], args[2])
		return append(reply[:0], "+OK\r\n"...)
	}
	return append(reply[:0], "-ERR\r\n"...)
}

// Handle processes one RESP frame natively.
func (k *KeyDB) Handle(frame []byte, reply []byte) []byte {
	return HandleRESP(k, frame, reply)
}

// Serve implements sim.System.
func (k *KeyDB) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	_, frame := k.fac.next()
	t0 := time.Now()
	k.reply = k.Handle(frame, k.reply)
	work := float64(time.Since(t0).Nanoseconds())
	return sim.Service{Ns: work + k.cfg.Costs.UserspaceTCP()}
}

// Name labels the system.
func (k *KeyDB) Name() string { return "User space (KeyDB)" }

// --- KFlex Redis at sk_skb -----------------------------------------------------------

// RegisterHelpers installs the RESP parse/reply helpers.
func RegisterHelpers(rt *kflex.Runtime) {
	r := rt.Kernel().Helpers
	if _, dup := r.Lookup(helperRespParse); dup {
		return
	}
	r.MustRegister(&kernel.HelperSpec{
		ID:   helperRespParse,
		Name: "redis_parse",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgStackBuf, Size: KeySize},
			{Kind: kernel.ArgStackBuf, Size: ValueSize},
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(*netsim.Packet)
			if !ok {
				return kvprog.OpNone, nil
			}
			if len(pkt.Data) == 1 && pkt.Data[0] == 'i' {
				return kvprog.OpInit, nil
			}
			var argv [3][]byte // GET key / SET key value, without allocating
			cmd, err := parseCommand(pkt.Data, argv[:0])
			if err != nil || len(cmd) < 2 || len(cmd[1]) != KeySize {
				return kvprog.OpNone, nil
			}
			if err := hc.Write(args[1], cmd[1]); err != nil {
				return 0, err
			}
			switch string(cmd[0]) {
			case "GET":
				return kvprog.OpGet, nil
			case "SET":
				if len(cmd) < 3 || len(cmd[2]) > ValueSize {
					return kvprog.OpNone, nil
				}
				if err := kvprog.WriteValue(hc, args[2], cmd[2]); err != nil {
					return 0, err
				}
				return kvprog.OpSet | uint64(len(cmd[2]))<<8, nil
			}
			return kvprog.OpNone, nil
		},
	})
	r.MustRegister(&kernel.HelperSpec{
		ID:   helperRespReply,
		Name: "redis_reply",
		Args: []kernel.Arg{
			{Kind: kernel.ArgCtx},
			{Kind: kernel.ArgHeapAddr},
			{Kind: kernel.ArgScalar},
		},
		Ret: kernel.Ret{Kind: kernel.RetScalar},
		Impl: func(hc *kernel.HelperCtx, args [5]uint64) (uint64, error) {
			pkt, ok := hc.Event.(*netsim.Packet)
			if !ok {
				return 0, nil
			}
			if args[1] == 0 {
				if len(pkt.Data) > 3 && pkt.Data[0] == '*' && pkt.Data[1] == '3' {
					pkt.Reply = append(pkt.Reply[:0], "+OK\r\n"...)
				} else {
					pkt.Reply = append(pkt.Reply[:0], "$-1\r\n"...)
				}
				return 0, nil
			}
			reply := append(pkt.Reply[:0], '$')
			reply = strconv.AppendUint(reply, min(args[2], ValueSize), 10)
			reply = append(reply, '\r', '\n')
			reply, err := kvprog.AppendValue(hc, reply, args[1], args[2])
			if err != nil {
				return 0, err
			}
			pkt.Reply = append(reply, '\r', '\n')
			return 0, nil
		},
	})
}

// Served is the sk_skb return code meaning "handled at the hook".
const Served = 3

// KFlexRedis serves GET/SET at the sk_skb hook.
type KFlexRedis struct {
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

// NewKFlex loads the Redis extension (§5.1: ~3100 LoC in the paper's C
// implementation; the structure is the shared KV program at sk_skb).
func NewKFlex(cfg Config, servers int) (*KFlexRedis, error) {
	rt := kflex.NewRuntime()
	RegisterHelpers(rt)
	prog := kvprog.Build(kvprog.Options{
		ParseHelper: helperRespParse,
		ReplyHelper: helperRespReply,
		RetServed:   Served,
		RetPass:     kernel.SkPass,
		RetErr:      kernel.SkDrop,
	})
	ext, err := rt.Load(kflex.Spec{
		Name:            "kflex-redis",
		Insns:           prog,
		Hook:            kflex.HookSkSkb,
		Mode:            kflex.ModeKFlex,
		HeapSize:        64 << 20,
		NumCPUs:         servers,
		FaultPlan:       cfg.FaultPlan,
		LocalCancel:     cfg.LocalCancel,
		CancelThreshold: cfg.CancelThreshold,
		Interpret:       cfg.Interpret,
	})
	if err != nil {
		return nil, err
	}
	k := &KFlexRedis{cfg: cfg, ext: ext, fac: &reqFactory{gen: workload.NewGenerator(cfg.Seed, cfg.Mix)}}
	for i := 0; i < servers; i++ {
		k.handles = append(k.handles, ext.Handle(i))
	}
	// Init, then preload.
	if _, _, err := k.Execute(0, []byte{'i'}); err != nil {
		return nil, err
	}
	if cfg.Preload {
		for key := uint64(1); key <= workload.KeySpace; key++ {
			frame := EncodeCommand([]byte("SET"),
				workload.FormatKey(key, KeySize), workload.FormatValue(key, ValueSize))
			if _, _, err := k.Execute(0, frame); err != nil {
				return nil, err
			}
		}
	}
	return k, nil
}

// Execute runs one frame through the extension.
func (k *KFlexRedis) Execute(cpu int, frame []byte) ([]byte, float64, error) {
	k.pkt.Data = frame
	k.pkt.Reply = k.pkt.Reply[:0]
	if k.ctx == nil {
		k.ctx = make([]byte, kernel.HookSkSkb.CtxSize)
	}
	binary.LittleEndian.PutUint32(k.ctx[0:], uint32(len(frame)))
	res, err := k.handles[cpu%len(k.handles)].Run(&k.pkt, k.ctx)
	if err != nil {
		return nil, 0, err
	}
	if res.Ret != Served {
		return nil, 0, fmt.Errorf("redis: extension returned %d", res.Ret)
	}
	k.Work.Add(res.Stats)
	return k.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), nil
}

// Worker is a per-goroutine executor bound to one simulated CPU: it owns
// its packet buffer, hook context, and work counters, so concurrent
// workers on distinct CPUs share nothing on the per-op path (§3.3's
// per-CPU exclusivity). Obtain one per serving goroutine with
// KFlexRedis.Worker; a Worker itself must not be shared across goroutines.
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
func (k *KFlexRedis) Worker(cpu int) *Worker {
	return &Worker{
		h:   k.handles[cpu%len(k.handles)],
		ctx: make([]byte, kernel.HookSkSkb.CtxSize),
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
	if res.Ret != Served {
		w.Errors++
		return nil, 0, fmt.Errorf("redis: extension returned %d", res.Ret)
	}
	w.Work.Add(res.Stats)
	return w.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), nil
}

// WorkStats returns the worker's accumulated VM work counters.
func (w *Worker) WorkStats() kflex.Stats { return w.Work }

// Serve implements sim.System: every request pays the TCP stack (§5.1) but
// skips wakeup, context switch, and the reply syscall. A failed extension
// invocation is re-served on the user-space path — the paper's offload-miss
// handling (§5) — and counted in Errors.
func (k *KFlexRedis) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	_, frame := k.fac.next()
	_, extNs, err := k.Execute(cpu, frame)
	if err != nil {
		k.Errors++
		if errors.Is(err, kflex.ErrFallback) {
			k.Fallbacks++
		}
		return sim.Service{Ns: k.cfg.Costs.UserspaceTCP()}
	}
	return sim.Service{Ns: extNs + k.cfg.Costs.SkSkbTCP()}
}

// Name labels the system.
func (k *KFlexRedis) Name() string { return "KFlex" }

// WorkStats returns the accumulated VM work counters.
func (k *KFlexRedis) WorkStats() kflex.Stats { return k.Work }

// ResetWork clears the accumulated counters (benchmark warmup).
func (k *KFlexRedis) ResetWork() { k.Work = kflex.Stats{} }

// Close releases the extension.
func (k *KFlexRedis) Close() { k.ext.Close() }

// Ext exposes the loaded extension (report inspection, chaos invariants).
func (k *KFlexRedis) Ext() *kflex.Extension { return k.ext }

// --- ZADD (Figure 6) -------------------------------------------------------------------

// ZAddUser is the single-threaded user-space ZADD server: Redis holds a
// global lock on the hash map for every ZADD (§5.2), so one mutex guards
// the whole sorted set.
type ZAddUser struct {
	cfg   Config
	mu    sync.Mutex
	zset  *ds.NativeZSet
	gen   *workload.Generator
	r     *rand.Rand
	reply []byte
}

// NewZAddUser builds the user-space ZADD system.
func NewZAddUser(cfg Config) *ZAddUser {
	return &ZAddUser{
		cfg:  cfg,
		zset: ds.NewNativeZSet(),
		gen:  workload.NewGenerator(cfg.Seed, workload.Mix{GetPct: 0}),
		r:    rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// Serve implements sim.System.
func (z *ZAddUser) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req := z.gen.Next()
	score := z.r.Uint64() % (1 << 16)
	frame := EncodeCommand([]byte("ZADD"), []byte("zset"),
		[]byte(strconv.FormatUint(score, 10)), workload.FormatKey(req.Key, KeySize))
	t0 := time.Now()
	if _, err := ParseCommand(frame); err != nil {
		// Internal invariant: the frame was built by EncodeCommand two
		// lines up; a parse failure is a codec bug, not runtime input.
		panic(err)
	}
	z.mu.Lock()
	z.zset.ZAdd(req.Key, score)
	z.mu.Unlock()
	work := float64(time.Since(t0).Nanoseconds())
	return sim.Service{Ns: work + z.cfg.Costs.UserspaceTCP()}
}

// Name labels the system.
func (z *ZAddUser) Name() string { return "Redis (user space)" }

// ZAddKFlex is the offloaded ZADD of §5.2.
type ZAddKFlex struct {
	cfg    Config
	ext    *kflex.Extension
	handle *kflex.Handle
	gen    *workload.Generator
	r      *rand.Rand
	ctx    []byte
	zset   *ds.NativeZSet // user-space fallback store
	// Errors counts ZADDs the extension failed to serve; they are
	// applied to the user-space zset and charged that path instead.
	Errors uint64
}

// NewZAddKFlex loads the ZADD extension (hash map + heap skip list).
func NewZAddKFlex(cfg Config) (*ZAddKFlex, error) {
	rt := kflex.NewRuntime()
	ext, err := rt.Load(kflex.Spec{
		Name:            "kflex-zadd",
		Insns:           ds.ZAddProgram(),
		Hook:            kflex.HookBench,
		Mode:            kflex.ModeKFlex,
		HeapSize:        128 << 20,
		FaultPlan:       cfg.FaultPlan,
		LocalCancel:     cfg.LocalCancel,
		CancelThreshold: cfg.CancelThreshold,
	})
	if err != nil {
		return nil, err
	}
	z := &ZAddKFlex{
		cfg:    cfg,
		ext:    ext,
		handle: ext.Handle(0),
		gen:    workload.NewGenerator(cfg.Seed, workload.Mix{GetPct: 0}),
		r:      rand.New(rand.NewSource(cfg.Seed + 1)),
		ctx:    make([]byte, kflex.HookBench.CtxSize),
		zset:   ds.NewNativeZSet(),
	}
	if _, err := z.op(3, 0, 0); err != nil { // init
		return nil, err
	}
	return z, nil
}

func (z *ZAddKFlex) op(op, member, score uint64) (*kflex.Result, error) {
	binary.LittleEndian.PutUint64(z.ctx[0:], op)
	binary.LittleEndian.PutUint64(z.ctx[8:], member)
	binary.LittleEndian.PutUint64(z.ctx[16:], score)
	res, err := z.handle.Run(nil, z.ctx)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Serve implements sim.System: ZADDs run over TCP at sk_skb, like the rest
// of KFlex-Redis. A failed extension invocation applies the ZADD to the
// user-space sorted set instead and pays that path's cost.
func (z *ZAddKFlex) Serve(cpu int, now float64, seq uint64, rng *rand.Rand) sim.Service {
	req := z.gen.Next()
	score := z.r.Uint64() % (1 << 16)
	res, err := z.op(0, req.Key, score)
	if err != nil || res.Cancelled != kflex.CancelNone {
		z.Errors++
		z.zset.ZAdd(req.Key, score)
		return sim.Service{Ns: z.cfg.Costs.UserspaceTCP()}
	}
	extNs := netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls)
	return sim.Service{Ns: extNs + z.cfg.Costs.SkSkbTCP()}
}

// Name labels the system.
func (z *ZAddKFlex) Name() string { return "KFlex ZADD" }

// Close releases the extension.
func (z *ZAddKFlex) Close() { z.ext.Close() }

// Score reads back a member's score (verification helper).
func (z *ZAddKFlex) Score(member uint64) (uint64, bool, error) {
	res, err := z.op(1, member, 0)
	if err != nil {
		return 0, false, err
	}
	if res.Ret != 1 {
		return 0, false, nil
	}
	return binary.LittleEndian.Uint64(z.ctx[24:]), true, nil
}
