package offload

import (
	"cmp"
	"errors"

	"kflex"
	"kflex/internal/apps/kvprog"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/netsim"
	"kflex/internal/workload"
)

// Config parameterizes one system instance for the simulation.
type Config struct {
	Mix workload.Mix
	// ValueSize is the byte size of the values the instance's own request
	// stream and preload carry (at most kvprog.ValueSize).
	ValueSize int
	Seed      int64
	// Preload fills every key before measuring.
	Preload bool
	// FaultPlan attaches deterministic fault injection to the KFlex
	// variants' runtimes (chaos testing); nil in normal runs.
	FaultPlan *faultinject.Plan
	// CancelThreshold is kflex.Spec.CancelThreshold: the extension is
	// retired at this many cancellations (0: at the first) and Serve then
	// takes the user-space fallback path; the supervised deployment
	// quarantines and reloads it.
	CancelThreshold uint64
	// Durable, when non-nil, replaces the supervised deployment's
	// in-memory authoritative store with a WAL-backed durable store:
	// every acknowledged SET is write-ahead logged, reload resync replays
	// from it, and a process restart recovers the full store from disk.
	Durable *durable.Store
	// ColdReload disables warm heap adoption across supervisor reloads:
	// every reload links a fresh heap and re-pushes the full store.
	ColdReload bool
	// Slots sizes the extension's physical handle-slot table for the
	// supervised deployment. It defaults to the server count; declaring
	// more leaves free slots as live-migration targets
	// (supervisor.Migrate).
	Slots int
	// HeapSize overrides the extension heap size in bytes (default 64 MiB).
	// Migration and fuzz tests shrink it so a cutover sweep doesn't pay a
	// 64 MiB allocation per instance.
	HeapSize uint64
}

const defaultHeapSize = 64 << 20

// ReqFactory deterministically produces the request stream every system of
// one app sees from the same Config. The stream's generator is built on the
// first draw: its Zipf set-up is milliseconds, and a deployment that is
// driven through Execute never draws.
type ReqFactory struct {
	codec *Codec
	seed  int64
	mix   workload.Mix
	gen   *workload.Generator
	vsz   int
}

// NewReqFactory seeds the stream from cfg.
func (c *Codec) NewReqFactory(cfg Config) *ReqFactory {
	return &ReqFactory{codec: c, seed: cfg.Seed, mix: cfg.Mix, vsz: cfg.ValueSize}
}

// req draws the next request without building its frame.
func (f *ReqFactory) req() workload.Request {
	if f.gen == nil {
		f.gen = workload.NewGenerator(f.seed, f.mix)
	}
	return f.gen.Next()
}

// Next draws the next request and builds its frame (client-side work).
func (f *ReqFactory) Next() (workload.Request, []byte) {
	req := f.req()
	key := workload.FormatKey(req.Key, kvprog.KeySize)
	if req.Op == workload.OpSet {
		return req, f.codec.AppendSet(nil, key, workload.FormatValue(req.Value, f.vsz))
	}
	return req, f.codec.AppendGet(nil, key)
}

// keySpace yields the first n keys of the workload's key space with their
// vsz-byte values, in KV.Range's shape.
func keySpace(n uint64, vsz int) func(func(key, value []byte) error) error {
	return func(fn func(key, value []byte) error) error {
		for k := uint64(1); k <= n; k++ {
			if err := fn(workload.FormatKey(k, kvprog.KeySize), workload.FormatValue(k, vsz)); err != nil {
				return err
			}
		}
		return nil
	}
}

// Preload stores every key of the workload's key space in kv.
func Preload(kv KV, vsz int) {
	_ = keySpace(workload.KeySpace, vsz)(func(key, value []byte) error {
		kv.Set(key, value)
		return nil
	})
}

// executor is what one driver of an extension owns: its packet buffer, hook
// context and counters.
type executor struct {
	codec *Codec
	conn  conn
	// Errors counts requests the extension failed to serve (cancelled
	// invocation, hard error, or a return code other than served);
	// Fallbacks the subset caused by degradation (kflex.ErrFallback).
	// Work accumulates the VM work counters of every success.
	Errors    uint64
	Fallbacks uint64
	Work      kflex.Stats
}

func (c *Codec) newExecutor() executor { return executor{codec: c, conn: c.newConn()} }

// execute runs one frame on h and returns the reply and the modeled
// execution cost. The reply buffer is reused across calls.
func (e *executor) execute(h *kflex.Handle, frame []byte) ([]byte, float64, error) {
	res, err := e.codec.run(h, &e.conn, frame)
	if err != nil {
		e.Errors++
		if errors.Is(err, kflex.ErrFallback) {
			e.Fallbacks++
		}
		return nil, 0, err
	}
	e.Work.Add(res.Stats)
	return e.conn.pkt.Reply, netsim.ModelExtNs(res.Stats.Insns, res.Stats.HelperCalls), nil
}

// Worker is a per-goroutine executor bound to one simulated CPU: it owns
// its packet buffer, hook context, and work counters, so concurrent
// workers on distinct CPUs share nothing on the per-op path (§3.3's
// per-CPU exclusivity). Obtain one per serving goroutine with
// KFlex.Worker; a Worker itself must not be shared across goroutines.
type Worker struct {
	executor
	h *kflex.Handle
}

// Execute runs one frame on the worker's CPU.
func (w *Worker) Execute(frame []byte) ([]byte, float64, error) { return w.execute(w.h, frame) }

// KFlex is the bare offloaded deployment (§5.1): GETs and SETs both
// processed at the codec's hook against the heap hash table, no supervisor
// and no authoritative store behind it. Like every deployment here it is
// driven one request at a time; parallel drivers each take a Worker.
type KFlex struct {
	executor
	ext *kflex.Extension
	fac *ReqFactory
}

// NewKFlex loads the codec's extension with one handle per server and
// populates its heap, with cfg.Preload with every key. shared enables
// heap sharing with user space and wraps table operations in the shared
// spin lock (the co-designed variant, §5.3).
func NewKFlex(c *Codec, cfg Config, servers int, shared bool) (*KFlex, error) {
	rt := kflex.NewRuntime()
	c.RegisterHelpers(rt)
	prog := c.Prog
	prog.WithLock = shared
	ext, err := rt.Load(kflex.Spec{
		Name:            "kflex-" + c.Name,
		Insns:           kvprog.Build(prog),
		Hook:            c.Hook,
		Mode:            kflex.ModeKFlex,
		HeapSize:        cmp.Or(cfg.HeapSize, defaultHeapSize),
		ShareHeap:       shared,
		NumCPUs:         servers,
		FaultPlan:       cfg.FaultPlan,
		CancelThreshold: cfg.CancelThreshold,
	})
	if err != nil {
		return nil, err
	}
	k := &KFlex{executor: c.newExecutor(), ext: ext, fac: c.NewReqFactory(cfg)}
	// Set-up traffic runs on a conn of its own, outside k's counters.
	var preload uint64
	if cfg.Preload {
		preload = workload.KeySpace
	}
	setup := c.newConn()
	if _, err := c.populate(ext.Handle(0), &setup, int(preload), keySpace(preload, cfg.ValueSize)); err != nil {
		ext.Close()
		return nil, err
	}
	return k, nil
}

// Worker returns a private executor for the given CPU.
func (k *KFlex) Worker(cpu int) *Worker {
	return &Worker{executor: k.codec.newExecutor(), h: k.ext.Handle(cpu)}
}

// Execute runs one frame through the extension on cpu's handle.
func (k *KFlex) Execute(cpu int, frame []byte) ([]byte, float64, error) {
	return k.execute(k.ext.Handle(cpu), frame)
}

// Serve implements sim.System. A failed extension invocation (cancelled
// mid-request, or refused after degradation) is re-served on the user-space
// path — the paper's offload-miss handling (§5) — and counted in Errors.
func (k *KFlex) Serve(cpu int, now float64) float64 {
	req, frame := k.fac.Next()
	_, extNs, err := k.Execute(cpu, frame)
	return extNs + k.codec.PathNs(req.Op == workload.OpSet, err == nil)
}

// Close releases the extension.
func (k *KFlex) Close() { k.ext.Close() }

// Ext exposes the loaded extension (report inspection, chaos invariants).
func (k *KFlex) Ext() *kflex.Extension { return k.ext }

// UserSpace is the codec's user-space server: every request pays the
// kernel path up to user space and the handler's calibrated work (PathNs,
// not offloaded). Nothing reads its replies, so it builds no frame and
// keeps no store; netsim's BenchmarkHandler is where the handler runs.
type UserSpace struct {
	codec *Codec
	fac   *ReqFactory
}

// NewUserSpace builds the codec's user-space server over cfg's request
// stream.
func NewUserSpace(c *Codec, cfg Config) *UserSpace {
	return &UserSpace{codec: c, fac: c.NewReqFactory(cfg)}
}

// Serve implements sim.System.
func (u *UserSpace) Serve(cpu int, now float64) float64 {
	return u.codec.PathNs(u.fac.req().Op == workload.OpSet, false)
}
