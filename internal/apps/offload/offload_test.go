package offload_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kflex"
	"kflex/asm"
	"kflex/insn"
	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/offload"
	"kflex/internal/apps/redis"
	"kflex/internal/durable"
	"kflex/internal/faultinject"
	"kflex/internal/kernel"
	"kflex/internal/netsim"
	"kflex/internal/supervisor"
	"kflex/internal/workload"
)

// The front end is tested once, over both codecs: every row below runs for
// Memcached's and for Redis's wire format.
var codecs = []*offload.Codec{&memcached.Codec, &redis.Codec}

func key(i int) []byte { return workload.FormatKey(uint64(i+1), kvprog.KeySize) }
func val(v int) []byte { return workload.FormatValue(uint64(v), kvprog.ValueSize) }

// clock is the supervisor's Tuning.Now: backoff expires when a test says so.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// deployment is one supervised instance on a durable MemDir store, one
// server on a two-slot table (slot 1 is the migration target).
type deployment struct {
	*offload.Supervised
	c   *offload.Codec
	clk *clock
	// recovered is what durable.Open reported of the store underneath.
	recovered durable.RecoveryInfo
}

const probeRuns = 2

func testConfig() offload.Config {
	return offload.Config{Mix: workload.Mix50, ValueSize: kvprog.ValueSize, Seed: 1, Slots: 2, HeapSize: 4 << 20}
}

// deploy opens a store on dir (a fresh one when nil), lets fill write to it,
// and brings the deployment up cold over it.
func deploy(t *testing.T, c *offload.Codec, dir *durable.MemDir, cfg offload.Config, fill func(st *durable.Store)) *deployment {
	t.Helper()
	if dir == nil {
		dir = durable.NewMemDir(nil)
	}
	st, info, err := durable.Open(dir, durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if fill != nil {
		fill(st)
	}
	d := &deployment{c: c, clk: &clock{now: time.Unix(0, 0)}, recovered: info}
	cfg.Durable = st
	d.Supervised, err = offload.NewSupervised(c, cfg, 1, supervisor.Tuning{
		BackoffBase: time.Hour, BackoffMax: time.Hour, ProbeRuns: probeRuns, Now: d.clk.Now,
		DrainTimeout: 5 * time.Second, // generous: -race slows settlement
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// set SETs key i to value v through the front end.
func (d *deployment) set(t *testing.T, i, v int, wantOffloaded bool) {
	t.Helper()
	reply, _, off := d.Execute(0, d.c.AppendSet(nil, key(i), val(v)))
	if string(reply) != d.c.Stored || off != wantOffloaded {
		t.Fatalf("SET %d: reply %q offloaded=%v, want %q offloaded=%v", i, reply, off, d.c.Stored, wantOffloaded)
	}
}

// get GETs key i and requires the reply for want (nil: a miss).
func (d *deployment) get(t *testing.T, i int, want []byte, wantOffloaded bool) {
	t.Helper()
	wantReply := []byte(d.c.Miss)
	if want != nil {
		wantReply = d.c.AppendHit(nil, want)
	}
	reply, _, off := d.Execute(0, d.c.AppendGet(nil, key(i)))
	if !bytes.Equal(reply, wantReply) || off != wantOffloaded {
		t.Fatalf("GET %d: reply %q offloaded=%v, want %q offloaded=%v", i, reply, off, wantReply, wantOffloaded)
	}
}

// quarantine opens the circuit; reload lets the backoff expire, so the
// next request performs the reload and probeRuns requests close the circuit.
func (d *deployment) quarantine(t *testing.T) {
	t.Helper()
	if !d.Supervisor().Quarantine("test") {
		t.Fatalf("quarantine refused in state %v", d.Supervisor().State())
	}
}

func (d *deployment) reload() { d.clk.advance(2 * time.Hour) }

func TestConformance(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, c *offload.Codec)
	}{
		{"wire-roundtrip", wireRoundTrip},
		{"cold-init", coldInit},
		{"client-frame-cannot-init", clientFrameCannotInit},
		{"recovered-init-report", recoveredInitReport},
		{"dirty-get-corrected", dirtyGetCorrected},
		{"warm-reload-delta", warmReloadDelta},
		{"default-policy-recovers", defaultPolicyRecovers},
		{"miss-backfill", missBackfill},
		{"migrate-delta", migrateDelta},
		{"oversized-set", oversizedSet},
		{"get-hit-zero-allocs", getHitZeroAllocs},
		{"reply-length-clamp", replyLengthClamp},
		{"worker-count-insns", workerCountInsns},
		{"tag-collision", tagCollision},
		{"chain-walk-cost", chainWalkCost},
		{"request-insns", requestInsns},
		{"bulk-equals-push", bulkEqualsPush},
		{"bulk-insn-bound", bulkInsnBound},
		{"client-frame-cannot-bulk", clientFrameCannotBulk},
		{"bulk-cancel", bulkCancel},
		{"grow-oracle", growOracle},
	}
	for _, c := range codecs {
		for _, row := range rows {
			t.Run(c.Name+"/"+row.name, func(t *testing.T) { row.run(t, c) })
		}
	}
}

// wireRoundTrip: Parse inverts AppendGet/AppendSet, refuses what the heap
// cannot hold, and Handle answers with the four reply encoders.
func wireRoundTrip(t *testing.T, c *offload.Codec) {
	if op, k, v := c.Parse(c.AppendGet(nil, key(1))); op != kvprog.OpGet || !bytes.Equal(k, key(1)) || v != nil {
		t.Fatalf("GET parses as op=%d key=%q value=%q", op, k, v)
	}
	set := c.AppendSet(nil, key(1), val(1))
	if op, k, v := c.Parse(set); op != kvprog.OpSet || !bytes.Equal(k, key(1)) || !bytes.Equal(v, val(1)) {
		t.Fatalf("SET parses as op=%d key=%q value=%q", op, k, v)
	}
	if !c.IsSet(set) || c.IsSet(c.AppendGet(nil, key(1))) {
		t.Fatal("IsSet disagrees with Parse")
	}
	for name, frame := range map[string][]byte{
		"junk":          []byte("junk"),
		"short key":     c.AppendGet(nil, key(1)[:kvprog.KeySize-1]),
		"long SET key":  c.AppendSet(nil, append(key(1), 'x'), val(1)),
		"oversized SET": c.AppendSet(nil, key(1), make([]byte, kvprog.ValueSize+1)),
	} {
		if op, _, _ := c.Parse(frame); op != kvprog.OpNone {
			t.Errorf("%s parses as op %d", name, op)
		}
	}
	kv := offload.NewStore()
	for _, step := range []struct{ frame, want []byte }{
		{c.AppendGet(nil, key(1)), []byte(c.Miss)},
		{set, []byte(c.Stored)},
		{c.AppendGet(nil, key(1)), c.AppendHit(nil, val(1))},
		{[]byte("junk"), []byte(c.Err)},
	} {
		if got := c.Handle(kv, step.frame, nil); !bytes.Equal(got, step.want) {
			t.Errorf("Handle(%q) = %q, want %q", step.frame, got, step.want)
		}
	}
}

// coldInit: a fresh heap is initialised and receives every key of the
// store, and serves them offloaded — at first load and at every reload of a
// ColdReload deployment.
func coldInit(t *testing.T, c *offload.Codec) {
	const keys = 48
	cfg := testConfig()
	cfg.ColdReload = true
	d := deploy(t, c, nil, cfg, func(st *durable.Store) {
		for i := 0; i < keys; i++ {
			st.Set(key(i), val(i))
		}
	})
	if init := d.Supervisor().Stats().LastInit; !init.FullResync || init.ResyncOps != keys {
		t.Fatalf("cold init = %+v, want a full resync of %d keys", init, keys)
	}
	for i := 0; i < keys; i++ {
		d.get(t, i, val(i), true)
	}
	d.get(t, keys, nil, true)
	if d.Offloaded != keys+1 || d.Fallbacks != 0 {
		t.Fatalf("offloaded=%d fallbacks=%d, want %d and 0", d.Offloaded, d.Fallbacks, keys+1)
	}
	// A cold reload pays the same price again, however small the delta.
	d.quarantine(t)
	d.FallbackSet(key(0), val(100))
	d.reload()
	d.get(t, 0, val(100), true)
	if st := d.Supervisor().Stats(); st.Reloads != 1 || st.WarmReloads != 0 || !st.LastInit.FullResync || st.LastInit.ResyncOps < keys {
		t.Fatalf("stats = %+v, want one cold reload re-pushing all %d keys", st, keys)
	}
}

// clientFrameCannotInit (ISSUE 23's TestClientFrameCannotInit): initialising
// the table is the deployment's request, made by event type, and no packet
// can make it. The one-byte frame 'i' was that request once, compared
// against every raw packet ahead of either codec's parse: from a client it
// re-allocated the bucket array (+33 pages a packet), orphaned every entry
// and was counted as offloaded. It is a malformed frame like any other —
// passed up by the extension, so an Err reply from the fallback on the
// supervised deployment and an error on the bare one, with the heap and
// every preloaded key as they were.
func clientFrameCannotInit(t *testing.T, c *offload.Codec) {
	const keys = 100
	frame := []byte{'i'}
	hits := func(t *testing.T, get func(frame []byte) []byte) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if reply, want := get(c.AppendGet(nil, key(i))), c.AppendHit(nil, val(i)); !bytes.Equal(reply, want) {
				t.Fatalf("GET %d after the client frame: reply %q, want %q", i, reply, want)
			}
		}
	}
	t.Run("Supervised", func(t *testing.T) {
		d := deploy(t, c, nil, testConfig(), func(st *durable.Store) {
			for i := 0; i < keys; i++ {
				st.Set(key(i), val(i))
			}
		})
		h := d.Supervisor().Extension().Heap()
		pages := h.PopulatedPages()
		reply, _, off := d.Execute(0, frame)
		if string(reply) != c.Err || off || d.Fallbacks != 1 || d.Offloaded != 0 {
			t.Fatalf("client frame: reply %q offloaded=%v (fallbacks=%d offloaded=%d), want %q from the fallback",
				reply, off, d.Fallbacks, d.Offloaded, c.Err)
		}
		hits(t, func(get []byte) []byte {
			reply, _, _ := d.Execute(0, get)
			return reply
		})
		if d.Offloaded != keys || d.Fallbacks != 1 || h.PopulatedPages() != pages {
			t.Fatalf("offloaded=%d fallbacks=%d pages %d -> %d, want %d hook-served hits and an untouched heap",
				d.Offloaded, d.Fallbacks, pages, h.PopulatedPages(), keys)
		}
	})
	t.Run("KFlex", func(t *testing.T) {
		k, err := offload.NewKFlex(c, testConfig(), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		for i := 0; i < keys; i++ {
			if reply, _, err := k.Execute(0, c.AppendSet(nil, key(i), val(i))); err != nil || string(reply) != c.Stored {
				t.Fatalf("preload SET %d: reply %q err %v", i, reply, err)
			}
		}
		pages := k.Ext().Heap().PopulatedPages()
		if reply, _, err := k.Execute(0, frame); err == nil || k.Errors != 1 {
			t.Fatalf("client frame: reply %q err %v errors=%d, want an offload miss", reply, err, k.Errors)
		}
		hits(t, func(get []byte) []byte {
			reply, _, err := k.Execute(0, get)
			if err != nil {
				t.Fatal(err)
			}
			return reply
		})
		if got := k.Ext().Heap().PopulatedPages(); k.Errors != 1 || got != pages {
			t.Fatalf("errors=%d pages %d -> %d, want one miss and an untouched heap", k.Errors, pages, got)
		}
	})
}

// recoveredInitReport: a store rebuilt by WAL replay is pushed whole into
// the first generation's heap, and a warm reload over it replays nothing.
func recoveredInitReport(t *testing.T, c *offload.Codec) {
	const keys = 8
	dir := durable.NewMemDir(nil)
	st, _, err := durable.Open(dir, durable.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		st.Set(key(i), val(i))
	}
	st.Close()
	d := deploy(t, c, dir, testConfig(), nil)
	if d.recovered.Replayed != keys || d.recovered.Keys != keys {
		t.Fatalf("recovery = %+v, want %d keys from %d replayed records", d.recovered, keys, keys)
	}
	if init := d.Supervisor().Stats().LastInit; !init.FullResync || init.ResyncOps != keys {
		t.Fatalf("first init = %+v, want a full resync of the %d recovered keys", init, keys)
	}
	d.quarantine(t)
	d.reload()
	d.get(t, 0, val(0), true)
	if after := d.Supervisor().Stats(); after.ResyncOps != keys || after.LastInit.ResyncOps != 0 {
		t.Fatalf("the warm reload pushed recovered keys again: %+v", after)
	}
}

// dirtyGetCorrected: while a fallback SET has not been replayed, the heap's
// stale copy is never served.
func dirtyGetCorrected(t *testing.T, c *offload.Codec) {
	d := deploy(t, c, nil, testConfig(), nil)
	d.set(t, 0, 1, true)
	d.get(t, 0, val(1), true)
	d.FallbackSet(key(0), val(2))
	if !d.Dirty(key(0)) {
		t.Fatal("fallback SET left the key clean")
	}
	d.get(t, 0, val(2), false)
	d.set(t, 0, 3, true) // an offloaded SET brings heap and store back together
	if d.Dirty(key(0)) {
		t.Fatal("offloaded SET left the key dirty")
	}
	d.get(t, 0, val(3), true)
}

// warmReloadDelta: a warm reload replays exactly the keys acknowledged on
// the fallback path, through Execute or FallbackSet alike.
func warmReloadDelta(t *testing.T, c *offload.Codec) {
	const keys, delta = 32, 5
	d := deploy(t, c, nil, testConfig(), nil)
	for i := 0; i < keys; i++ {
		d.set(t, i, i, true)
	}
	d.quarantine(t)
	d.set(t, 0, 100, false) // open circuit: Execute falls back
	for i := 1; i < delta; i++ {
		d.FallbackSet(key(i), val(100+i))
	}
	d.get(t, 0, val(100), false)
	d.reload()
	for i := 0; i < keys; i++ {
		want := i
		if i < delta {
			want = 100 + i
		}
		d.get(t, i, val(want), true)
	}
	st := d.Supervisor().Stats()
	if st.Reloads != 1 || st.WarmReloads != 1 || st.ReloadFailures != 0 || st.LastInit.FullResync || st.LastInit.ResyncOps != delta {
		t.Fatalf("stats = %+v, want one warm reload replaying %d keys", st, delta)
	}
	if d.Supervisor().State() != supervisor.Healthy {
		t.Fatalf("state = %v after %d probes", d.Supervisor().State(), probeRuns)
	}
}

// defaultPolicyRecovers: under the default policy (CancelThreshold 0, the
// paper's) one cancelled invocation retires the extension, and the
// deployment reacts to that as to any retirement: it quarantines, serves on
// the fallback path meanwhile, reloads warm replaying exactly the keys
// acknowledged there, and goes back to offloading with a clean dirty set.
func defaultPolicyRecovers(t *testing.T, c *offload.Codec) {
	const keys, delta = 32, 5
	// Armed, every helper call fails, so the run is cancelled.
	plan := faultinject.NewPlan(1).SetRate(faultinject.HelperErr, 1)
	cfg := testConfig()
	cfg.FaultPlan = plan
	d := deploy(t, c, nil, cfg, nil)
	for i := 0; i < keys; i++ {
		d.set(t, i, i, true)
	}
	plan.Enable()
	d.set(t, 0, 100, false) // the one fault: cancelled, acknowledged on fallback
	plan.Disarm()
	sup := d.Supervisor()
	if st := sup.Stats(); sup.State() != supervisor.Quarantined || st.Quarantines != 1 {
		t.Fatalf("after one cancellation: state %v, stats %+v, want quarantined once", sup.State(), st)
	}
	for i := 1; i < delta; i++ {
		d.set(t, i, 100+i, false)
	}
	offloaded := d.Offloaded
	d.reload()
	for i := 0; i < keys; i++ {
		want := i
		if i < delta {
			want = 100 + i
		}
		d.get(t, i, val(want), true)
		if d.Dirty(key(i)) {
			t.Fatalf("key %d still dirty after the reload", i)
		}
	}
	st := sup.Stats()
	if sup.State() != supervisor.Healthy || st.Reloads != 1 || st.WarmReloads != 1 || st.ReloadFailures != 0 ||
		st.LastInit.FullResync || st.LastInit.ResyncOps != delta {
		t.Fatalf("state %v, stats %+v, want healthy after one warm reload replaying %d keys", sup.State(), st, delta)
	}
	if d.Offloaded != offloaded+keys {
		t.Fatalf("offloaded grew by %d over %d GETs after the reload", d.Offloaded-offloaded, keys)
	}
}

// missBackfill: an entry the heap never saw (it landed in the store while
// the extension was out of service) is answered from the store.
func missBackfill(t *testing.T, c *offload.Codec) {
	d := deploy(t, c, nil, testConfig(), nil)
	d.get(t, 0, nil, true)
	d.Store().Set(key(0), val(7))
	d.get(t, 0, val(7), false)
	if d.Offloaded != 1 || d.Fallbacks != 1 {
		t.Fatalf("offloaded=%d fallbacks=%d, want 1 and 1", d.Offloaded, d.Fallbacks)
	}
}

// migrateDelta: a live migration's adoption replays exactly the dirty set.
func migrateDelta(t *testing.T, c *offload.Codec) {
	const keys, delta = 32, 7
	d := deploy(t, c, nil, testConfig(), nil)
	for i := 0; i < keys; i++ {
		d.set(t, i, i, true)
	}
	for i := 0; i < delta; i++ {
		d.FallbackSet(key(i), val(200+i))
	}
	sup := d.Supervisor()
	rep, err := sup.Migrate(0, sup.FreeSlots()[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResyncOps != delta {
		t.Fatalf("migration resynced %d keys, want %d", rep.ResyncOps, delta)
	}
	for i := 0; i < keys; i++ {
		want := i
		if i < delta {
			want = 200 + i
		}
		d.get(t, i, val(want), true)
	}
}

// oversizedSet: a SET the heap cannot hold is refused offloaded and on
// fallback alike and never reaches the store, so the next reload has
// nothing it cannot replay.
func oversizedSet(t *testing.T, c *offload.Codec) {
	d := deploy(t, c, nil, testConfig(), nil)
	d.set(t, 0, 1, true)
	big := c.AppendSet(nil, key(0), make([]byte, 100))
	refused := func(when string) {
		t.Helper()
		reply, _, off := d.Execute(0, big)
		if string(reply) != c.Err || off {
			t.Fatalf("%s: oversized SET reply %q offloaded=%v, want %q", when, reply, off, c.Err)
		}
		if got := d.Store().Get(key(0)); !bytes.Equal(got, val(1)) {
			t.Fatalf("%s: oversized SET changed the store to %q", when, got)
		}
	}
	refused("offloaded")
	d.quarantine(t)
	refused("on fallback")
	d.reload()
	d.get(t, 0, val(1), true)
	if st := d.Supervisor().Stats(); st.Reloads != 1 || st.ReloadFailures != 0 {
		t.Fatalf("reloads=%d failures=%d, want 1 and 0", st.Reloads, st.ReloadFailures)
	}
}

// getHitZeroAllocs: an offloaded GET hit allocates nothing, on the
// supervised durable deployment (the performance gate's mc-read path), on
// the bare one and on a Worker — the helpers copy between the packet, the
// stack and the heap in place, and the parse keeps its arguments on the
// stack.
func getHitZeroAllocs(t *testing.T, c *offload.Codec) {
	const keys = 16
	var gets [][]byte
	for i := 0; i < keys; i++ {
		gets = append(gets, c.AppendGet(nil, key(i)))
	}
	want := len(c.AppendHit(nil, val(0)))
	measure := func(name string, execute func(frame []byte) []byte) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if reply := execute(c.AppendSet(nil, key(i), val(i))); string(reply) != c.Stored {
				t.Fatalf("%s: SET reply %q", name, reply)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if reply := execute(gets[i%keys]); len(reply) != want {
				t.Fatalf("%s: GET hit reply %q", name, reply)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: offloaded GET hit: %.0f allocs, want 0", name, allocs)
		}
	}
	d := deploy(t, c, nil, testConfig(), nil)
	measure("supervised", func(frame []byte) []byte {
		reply, _, off := d.Execute(0, frame)
		if !off {
			t.Fatal("supervised: request fell back")
		}
		return reply
	})
	k, err := offload.NewKFlex(c, testConfig(), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	bare := func(execute func(frame []byte) ([]byte, float64, error)) func([]byte) []byte {
		return func(frame []byte) []byte {
			reply, _, err := execute(frame)
			if err != nil {
				t.Fatal(err)
			}
			return reply
		}
	}
	measure("bare", bare(func(frame []byte) ([]byte, float64, error) { return k.Execute(0, frame) }))
	measure("worker", bare(k.Worker(1).Execute))
}

// replyLengthClamp: the length the reply helper receives is a scalar the
// extension controls (the real program loads it from a heap word a
// shared-heap user thread can write). Values with the top bit set must
// clamp to ValueSize like any other oversized length, not turn negative
// and panic the host in make.
func replyLengthClamp(t *testing.T, c *offload.Codec) {
	for _, length := range []int64{math.MinInt64 /* 1<<63 */, -1 /* ^uint64(0) */} {
		rt := kflex.NewRuntime()
		c.RegisterHelpers(rt)
		prog := asm.New().
			Mov(insn.R6, insn.R1).
			Call(kernel.HelperKflexHeapBase).
			Mov(insn.R1, insn.R6).
			Mov(insn.R2, insn.R0).
			MovImm(insn.R3, length).
			Call(c.Prog.ReplyHelper).
			Ret(c.Prog.RetServed).
			MustAssemble()
		ext, err := rt.Load(kflex.Spec{
			Name: "huge-reply", Insns: prog, Hook: c.Hook,
			Mode: kflex.ModeKFlex, HeapSize: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		pkt := &netsim.Packet{Data: c.AppendGet(nil, key(0))}
		ctx := make([]byte, c.Hook.CtxSize)
		binary.LittleEndian.PutUint32(ctx, uint32(len(pkt.Data)))
		res, err := ext.Handle(0).Run(pkt, ctx)
		ext.Close()
		if err != nil || res.Ret != uint64(c.Prog.RetServed) {
			t.Fatalf("length %#x: ret=%d cancelled=%v err=%v", uint64(length), res.Ret, res.Cancelled, err)
		}
		header := c.HitHeader(nil, kvprog.ValueSize)
		if len(pkt.Reply) != len(header)+kvprog.ValueSize+len(c.HitTrailer) || !bytes.HasPrefix(pkt.Reply, header) {
			t.Fatalf("length %#x: reply = %q, want a %d-byte hit", uint64(length), pkt.Reply, kvprog.ValueSize)
		}
	}
}

// workerCountInsns: workers on distinct CPUs share nothing that changes
// what an op executes. Every key is preloaded, so SETs overwrite in place
// and the table is frozen: the same frames retire the same instructions
// through one Worker and split stride-wise across two concurrent ones.
func workerCountInsns(t *testing.T, c *offload.Codec) {
	const keys, ops = 64, 2000
	k, err := offload.NewKFlex(c, testConfig(), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	setup := k.Worker(0)
	for i := 0; i < keys; i++ {
		if reply, _, err := setup.Execute(c.AppendSet(nil, key(i), val(i))); err != nil || string(reply) != c.Stored {
			t.Fatalf("preload SET %d: reply %q err %v", i, reply, err)
		}
	}
	frames := make([][]byte, ops)
	for i := range frames {
		if i%10 == 9 {
			frames[i] = c.AppendSet(nil, key(i%keys), val(i))
		} else {
			frames[i] = c.AppendGet(nil, key(i*7%keys))
		}
	}
	insns := func(workers int) uint64 {
		ws := make([]*offload.Worker, workers)
		var wg sync.WaitGroup
		for w := range ws {
			ws[w] = k.Worker(w)
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(frames); i += workers {
					if _, _, err := ws[w].Execute(frames[i]); err != nil {
						t.Errorf("%d workers: frame %d: %v", workers, i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		var sum uint64
		for _, w := range ws {
			sum += w.Work.Insns
		}
		return sum
	}
	if one, two := insns(1), insns(2); one == 0 || one != two {
		t.Fatalf("%d frames retired %d insns through one worker, %d across two: workers share state on the per-op path", ops, one, two)
	}
}

// kvHash is a copy of the program's hash (kvprog.Build): the four
// little-endian key words folded by multiply-xor, the high half mixed into
// the low, and the top 32 bits of one more multiply kept. A node's tag is the
// whole of it, its bucket the low bits.
func kvHash(key []byte) uint64 {
	const m = 0x9E3779B97F4A7C15
	h := binary.LittleEndian.Uint64(key)
	for i := 8; i < kvprog.KeySize; i += 8 {
		h = (h * m) ^ binary.LittleEndian.Uint64(key[i:])
	}
	h ^= h >> 33
	return (h * m) >> 32
}

// bareKV is the bare deployment, driven one frame at a time.
type bareKV struct {
	*offload.KFlex
	c *offload.Codec
}

// onBare runs fn on a fresh bare deployment, in a subtest named
// interpret=false: the run executes the lowered code, and the subtest keeps
// the name it had when an interpreter tier ran beside it.
func onBare(t *testing.T, c *offload.Codec, fn func(t *testing.T, d bareKV)) {
	t.Run("interpret=false", func(t *testing.T) {
		k, err := offload.NewKFlex(c, testConfig(), 1, false)
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		fn(t, bareKV{k, c})
	})
}

// set SETs key i to value v.
func (d bareKV) set(t *testing.T, i, v int) {
	t.Helper()
	if reply, _, err := d.Execute(0, d.c.AppendSet(nil, key(i), val(v))); err != nil || string(reply) != d.c.Stored {
		t.Fatalf("SET %d: reply %q err %v", i, reply, err)
	}
}

// get GETs key i, requires the reply for value v (-1: a miss) and returns
// the program instructions the run retired: its executed instructions less
// the guards and probes Kie added.
func (d bareKV) get(t *testing.T, i, v int) uint64 {
	t.Helper()
	want := []byte(d.c.Miss)
	if v >= 0 {
		want = d.c.AppendHit(nil, val(v))
	}
	program := func() uint64 { w := d.Work; return w.Insns - w.Guards - w.Probes }
	before := program()
	if reply, _, err := d.Execute(0, d.c.AppendGet(nil, key(i))); err != nil || !bytes.Equal(reply, want) {
		t.Fatalf("GET %d: reply %q err %v, want %q", i, reply, err, want)
	}
	return program() - before
}

// glob reads the globals word at off of the deployment's heap.
func (d bareKV) glob(t *testing.T, off int16) uint64 {
	t.Helper()
	v := d.Ext().Heap().ExtView()
	w, err := v.Load(v.Base()+uint64(off), 8)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Per-node costs of the chain walk, in instructions: a node passed on its
// tag (null check, tag load and compare, next load, jump back), and the
// four-word key compare a matching tag adds when the key differs in its
// last word, as every pair of workload keys does.
const passedNode, keyCompare = 5, 4 * 3

// tagCollision: two keys with one hash share a bucket and a tag. The tag
// only filters, so each is still told from the other by its key words: a
// GET of one never answers the other's value, and a SET of one leaves the
// other's alone.
func tagCollision(t *testing.T, c *offload.Codec) {
	seen := make(map[uint64]int)
	a, b := -1, -1
	for i := 0; a < 0; i++ {
		h := kvHash(key(i))
		if j, ok := seen[h]; ok {
			a, b = j, i
		}
		seen[h] = i
	}
	onBare(t, c, func(t *testing.T, d bareKV) {
		empty := d.get(t, b, -1)
		d.set(t, a, 1)
		if got := d.get(t, b, -1) - empty; got != passedNode+keyCompare {
			t.Fatalf("GET of key %d behind key %d (one hash) ran %d more instructions than on an empty bucket, want %d for the passed node and %d for the key compare its matching tag costs",
				b, a, got, passedNode, keyCompare)
		}
		d.set(t, b, 2)
		d.get(t, a, 1)
		d.get(t, b, 2)
		d.set(t, a, 3) // a SET hit behind b
		d.get(t, b, 2)
		d.get(t, a, 3)
		d.set(t, b, 4) // a SET hit at the head
		d.get(t, a, 3)
		d.get(t, b, 4)
	})
}

// chainWalkCost pins what the walk pays per node it passes: keys of one
// bucket with distinct tags, inserted at the head in turn, so the node at
// depth k is passed over k others on the tag alone. The bucket is the
// fresh table's, its mask read from the heap.
func chainWalkCost(t *testing.T, c *offload.Codec) {
	const depth = 5
	onBare(t, c, func(t *testing.T, d bareKV) {
		mask := d.glob(t, kvprog.GlobMask)
		buckets := make(map[uint64][]int)
		tags := make(map[uint64]bool)
		var chain []int
		for i := 0; len(chain) < depth; i++ {
			h := kvHash(key(i))
			if tags[h] {
				continue
			}
			tags[h] = true
			bkt := h & mask
			buckets[bkt] = append(buckets[bkt], i)
			chain = buckets[bkt]
		}
		for v, i := range chain {
			d.set(t, i, v)
		}
		head := d.get(t, chain[depth-1], depth-1)
		for k := 1; k < depth; k++ {
			v := depth - 1 - k
			if got := d.get(t, chain[v], v) - head; got != uint64(passedNode*k) {
				t.Fatalf("GET at depth %d ran %d more instructions than at the head, want %d (%d per passed node)",
					k, got, passedNode*k, passedNode)
			}
		}
	})
}

// requestInsns pins what each request kind executes, guards included, on a
// key at the head of its chain (its bucket empty for the misses). Control
// events branch off behind the compare that sends every request down the
// data path, so a control op that adds a dispatch to the request path
// fails here.
func requestInsns(t *testing.T, c *offload.Codec) {
	onBare(t, c, func(t *testing.T, d bareKV) {
		for _, step := range []struct {
			name  string
			frame []byte
			want  uint64
		}{
			{"GET miss", c.AppendGet(nil, key(0)), 53},
			{"SET miss", c.AppendSet(nil, key(0), val(0)), 89},
			{"SET hit", c.AppendSet(nil, key(0), val(1)), 86},
			{"GET hit", c.AppendGet(nil, key(0)), 68},
		} {
			before := d.Work.Insns
			if _, _, err := d.Execute(0, step.frame); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			if got := d.Work.Insns - before; got != step.want {
				t.Errorf("%s ran %d instructions, want %d", step.name, got, step.want)
			}
		}
	})
}

// hookedStore runs before ahead of every Set.
type hookedStore struct {
	offload.KV
	before func()
}

func (h hookedStore) Set(key, value []byte) {
	h.before()
	h.KV.Set(key, value)
}

// TestFallbackSetStoresBeforeMarking: a migration's adoption resync may
// land anywhere inside a fallback acknowledgement. The fake store puts one
// at the worst point — as the store write begins — for a SET acknowledged
// by FallbackSet and for one Execute serves on its offload-miss path (a
// cancelled run). Marking the key before writing the store let that resync
// snapshot the old value and clear the mark: the key must still be dirty
// afterwards, be corrected while it is, and be replayed by the next reload.
func TestFallbackSetStoresBeforeMarking(t *testing.T) {
	for _, c := range codecs {
		for _, through := range []string{"FallbackSet", "Execute"} {
			t.Run(c.Name+"/"+through, func(t *testing.T) {
				// Armed, every helper call fails, so every run is cancelled.
				plan := faultinject.NewPlan(1).SetRate(faultinject.HelperErr, 1)
				cfg := testConfig()
				cfg.FaultPlan, cfg.CancelThreshold = plan, kflex.CancelNever
				d := deploy(t, c, nil, cfg, nil)
				d.set(t, 0, 1, true)
				sup := d.Supervisor()
				migrations := 0
				d.WrapStore(func(kv offload.KV) offload.KV {
					return hookedStore{kv, func() {
						plan.Disarm()
						if _, err := sup.Migrate(0, sup.FreeSlots()[0]); err != nil {
							t.Errorf("migrate inside Set: %v", err)
						}
						migrations++
					}}
				})
				if through == "Execute" {
					plan.Enable()
					d.set(t, 0, 2, false)
				} else {
					d.FallbackSet(key(0), val(2))
				}
				if migrations != 1 {
					t.Fatalf("%d migrations ran inside the SET, want 1", migrations)
				}
				d.WrapStore(func(kv offload.KV) offload.KV { return kv.(hookedStore).KV })
				if !d.Dirty(key(0)) {
					t.Fatal("the resync inside the acknowledgement cleared the key's dirty mark")
				}
				d.get(t, 0, val(2), false)
				d.quarantine(t)
				d.reload()
				d.get(t, 0, val(2), true)
				if st := sup.Stats(); st.WarmReloads != 1 || st.LastInit.ResyncOps != 1 {
					t.Fatalf("stats = %+v, want one warm reload replaying the key", st)
				}
			})
		}
	}
}

// rangeHookedStore runs afterFirst once, when Range's callback has returned
// from its first pair.
type rangeHookedStore struct {
	offload.KV
	afterFirst func()
}

func (h rangeHookedStore) Range(fn func(key, value []byte) error) error {
	fired := false
	return h.KV.Range(func(key, value []byte) error {
		err := fn(key, value)
		if !fired {
			fired = true
			h.afterFirst()
		}
		return err
	})
}

// TestColdReloadKeepsMarkOfSetDuringResync: FallbackSet may run beside a
// resync, and the cold replay walks a snapshot of the store. A SET
// acknowledged after its key was passed over is in the store but not in the
// heap, and its dirty mark is all that routes the next GET to the store; the
// parent cleared every mark after the replay and answered the old value.
func TestColdReloadKeepsMarkOfSetDuringResync(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name, func(t *testing.T) {
			cfg := testConfig()
			cfg.ColdReload = true
			d := deploy(t, c, nil, cfg, nil)
			d.set(t, 0, 1, true)
			d.quarantine(t)
			d.WrapStore(func(kv offload.KV) offload.KV {
				return rangeHookedStore{kv, func() { d.FallbackSet(key(0), val(2)) }}
			})
			d.reload()
			d.get(t, 0, val(2), false) // performs the reload; corrected against the store
			if st := d.Supervisor().Stats(); st.Reloads != 1 || !st.LastInit.FullResync {
				t.Fatalf("stats = %+v, want one cold reload", st)
			}
			if !d.Dirty(key(0)) {
				t.Fatal("the cold resync erased the mark of a SET acknowledged while it ran")
			}
			d.set(t, 0, 3, true) // an offloaded SET brings heap and store back together
			d.get(t, 0, val(3), true)
		})
	}
}

// TestConcurrentMigrateTraffic migrates the serving CPU back and forth
// while one goroutine drives SETs and GETs: Execute acknowledges fallback
// SETs on the serving goroutine while each adoption resync snapshots the
// dirty set on this one. The oracle is single-writer — the serving
// goroutine knows the value of every SET it acknowledged and checks every
// later GET against it.
func TestConcurrentMigrateTraffic(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			const keys, migrations, opsBetween = 32, 6, 300
			d := deploy(t, c, nil, testConfig(), nil)
			var served atomic.Uint64
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				latest := make(map[int]int)
				for op := 1; ; op++ {
					select {
					case <-stop:
						return
					default:
					}
					i := op % keys
					if op%3 == 0 {
						reply, _, _ := d.Execute(0, c.AppendSet(nil, key(i), val(op)))
						if string(reply) != c.Stored {
							t.Errorf("SET %d: reply %q", i, reply)
							return
						}
						latest[i] = op
					} else if want, ok := latest[i]; ok {
						reply, _, _ := d.Execute(0, c.AppendGet(nil, key(i)))
						if !bytes.Equal(reply, c.AppendHit(nil, val(want))) {
							t.Errorf("GET %d = %q, want op %d's value (lost or stale ack)", i, reply, want)
							return
						}
					}
					served.Add(1)
				}
			}()
			sup := d.Supervisor()
			for m := 0; m < migrations && !t.Failed(); m++ {
				// Let traffic flow between cutovers.
				for target := served.Load() + opsBetween; served.Load() < target; {
					select {
					case <-done:
						t.Fatal("traffic stopped early")
					default:
						time.Sleep(50 * time.Microsecond)
					}
				}
				if _, err := sup.Migrate(0, sup.FreeSlots()[0]); err != nil {
					t.Fatalf("migration %d: %v", m, err)
				}
			}
			close(stop)
			<-done
			if st := sup.Stats(); st.Migrations != migrations || sup.State() != supervisor.Healthy {
				t.Fatalf("migrations=%d state=%v, want %d and healthy", st.Migrations, sup.State(), migrations)
			}
		})
	}
}

// TestConcurrentFallbackSetGate races the lock-free gate on the dirty set:
// Execute reads the set's size without the mutex and locks only when it is
// non-zero, while FallbackSet, on a second goroutine, takes the set from
// empty to non-empty. A GET that races the FallbackSet may answer either
// value; a GET issued after FallbackSet returned must answer the new one.
// Each round the serving goroutine then SETs through the extension, which
// unmarks the key and takes the set back to empty for the next round.
func TestConcurrentFallbackSetGate(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			const rounds = 200
			d := deploy(t, c, nil, testConfig(), nil)
			d.set(t, 0, 0, true)
			// The setter acknowledges round r's value on receiving r and
			// publishes r in acked once FallbackSet has returned.
			var acked atomic.Int64
			begin := make(chan int)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := range begin {
					d.FallbackSet(key(0), val(r))
					acked.Store(int64(r))
				}
			}()
			get := c.AppendGet(nil, key(0))
			for r := 1; r <= rounds && !t.Failed(); r++ {
				if d.Dirty(key(0)) {
					t.Fatalf("round %d: the dirty set is not empty before the FallbackSet", r)
				}
				older, newer := c.AppendHit(nil, val(r-1)), c.AppendHit(nil, val(r))
				begin <- r
				for acked.Load() != int64(r) {
					if reply, _, _ := d.Execute(0, get); !bytes.Equal(reply, older) && !bytes.Equal(reply, newer) {
						t.Fatalf("round %d: racing GET = %q, want round %d's or %d's value", r, reply, r-1, r)
					}
					runtime.Gosched() // two vCPUs, four goroutines: let the setter on
				}
				d.get(t, 0, val(r), false) // acknowledged: the heap copy is stale, the store answers
				d.set(t, 0, r, true)       // write-through: heap and store agree, the key is unmarked
				d.get(t, 0, val(r), true)
			}
			close(begin)
			<-done
		})
	}
}

// TestKFlexHeapSize: the bare deployment links the heap its Config declares,
// and 64 MiB when it declares none, as the supervised one does.
func TestKFlexHeapSize(t *testing.T) {
	for _, tc := range []struct{ declared, want uint64 }{{0, 64 << 20}, {4 << 20, 4 << 20}} {
		cfg := testConfig()
		cfg.HeapSize = tc.declared
		k, err := offload.NewKFlex(&memcached.Codec, cfg, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Ext().Heap().Size(); got != tc.want {
			t.Errorf("HeapSize %#x: heap of %#x bytes, want %#x", tc.declared, got, tc.want)
		}
		k.Close()
	}
}
