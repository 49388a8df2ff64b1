package memcached

import (
	"bytes"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
	"kflex/internal/netsim"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

func TestProtocolRoundTrip(t *testing.T) {
	key := workload.FormatKey(42, KeySize)
	val := workload.FormatValue(42, ValueSize)
	op, k, v := ParseRequest(EncodeSet(key, val))
	if op != kvprog.OpSet || !bytes.Equal(k, key) || !bytes.Equal(v, val) {
		t.Fatalf("set parse: op=%d", op)
	}
	op, k, v = ParseRequest(EncodeGet(key))
	if op != kvprog.OpGet || !bytes.Equal(k, key) || v != nil {
		t.Fatalf("get parse: op=%d", op)
	}
	if op, _, _ := ParseRequest([]byte("junk")); op != 0 {
		t.Fatal("junk accepted")
	}
}

func TestStoreHandle(t *testing.T) {
	s := offload.NewStore()
	key := workload.FormatKey(1, KeySize)
	val := workload.FormatValue(1, ValueSize)
	reply := Codec.Handle(s, EncodeGet(key), nil)
	if string(reply) != "M" {
		t.Fatalf("miss reply = %q", reply)
	}
	reply = Codec.Handle(s, EncodeSet(key, val), reply)
	if string(reply) != "S" {
		t.Fatalf("set reply = %q", reply)
	}
	reply = Codec.Handle(s, EncodeGet(key), reply)
	if reply[0] != 'V' || !bytes.Equal(reply[1:], val) {
		t.Fatalf("get reply = %q", reply)
	}
}

// smallCfg shrinks preload for unit tests.
func smallCfg(mix workload.Mix) Config {
	cfg := DefaultConfig(mix)
	cfg.Preload = false
	return cfg
}

func TestKFlexSetGet(t *testing.T) {
	k, err := NewKFlex(smallCfg(workload.Mix50), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	key := workload.FormatKey(7, KeySize)
	val := workload.FormatValue(7, ValueSize)

	reply, _, err := k.Execute(0, EncodeGet(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "M" {
		t.Fatalf("pre-set GET = %q", reply)
	}
	reply, _, err = k.Execute(0, EncodeSet(key, val))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "S" {
		t.Fatalf("SET = %q", reply)
	}
	reply, extNs, err := k.Execute(0, EncodeGet(key))
	if err != nil {
		t.Fatal(err)
	}
	if reply[0] != 'V' || !bytes.Equal(reply[1:], val) {
		t.Fatalf("GET after SET = %q", reply)
	}
	if extNs <= 0 {
		t.Fatal("no modeled execution cost")
	}
	// Overwrite in place.
	val2 := workload.FormatValue(777, ValueSize)
	if _, _, err := k.Execute(0, EncodeSet(key, val2)); err != nil {
		t.Fatal(err)
	}
	reply, _, _ = k.Execute(0, EncodeGet(key))
	if !bytes.Equal(reply[1:], val2) {
		t.Fatal("overwrite lost")
	}
}

func TestBMCHitAndMiss(t *testing.T) {
	cfg := smallCfg(workload.Mix90)
	b, err := NewBMC(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	key := workload.FormatKey(9, KeySize)
	val := workload.FormatValue(9, cfg.ValueSize)
	b.store.Set(key, val)
	b.fillCache(key, val)

	// A direct extension run on a cached key is served at the hook.
	pkt := pktFor(EncodeGet(key))
	res, err := b.ext.Handle(0).Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 3 { // XDP_TX
		t.Fatalf("cached GET ret = %d", res.Ret)
	}
	if pkt.Reply[0] != 'V' || !bytes.Equal(pkt.Reply[1:1+len(val)], val) {
		t.Fatalf("BMC reply = %q", pkt.Reply)
	}
	// Uncached key passes to the stack.
	pkt = pktFor(EncodeGet(workload.FormatKey(10, KeySize)))
	res, err = b.ext.Handle(0).Run(pkt, pkt.XDPCtx(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 2 { // XDP_PASS
		t.Fatalf("uncached GET ret = %d", res.Ret)
	}
	// Served requests, hits and misses alike, never fail on the hook: a
	// failed run would be charged the user-space path, as a miss.
	for i := 0; i < 256; i++ {
		b.Serve(0, 0)
	}
	if b.Errors != 0 {
		t.Fatalf("BMC hook failed %d of 256 requests", b.Errors)
	}
}

func TestCoDesignGCWalksSharedTable(t *testing.T) {
	cfg := smallCfg(workload.Mix50)
	c, err := NewCoDesign(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(1); k <= 100; k++ {
		frame := EncodeSet(workload.FormatKey(k, KeySize), workload.FormatValue(k, cfg.ValueSize))
		if _, _, err := c.Execute(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	words, entries, err := c.RunGC()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 100 || words != kvprog.MinBuckets {
		t.Fatalf("GC saw %d entries in %d bucket words, want 100 in %d", entries, words, kvprog.MinBuckets)
	}
}

// TestCoDesignGCCountsMidDoubling: while the shared table is doubling, the
// collector counts every entry once — those still in the old array, those
// moved, and the node a cancelled move left unlinked from its old bucket
// and not yet linked into its new one (built here through the user mapping,
// as a cancel right after the unlink store leaves it). A lookup finds that
// node, and the next SET miss finishes its move.
func TestCoDesignGCCountsMidDoubling(t *testing.T) {
	cfg := smallCfg(workload.Mix50)
	c, err := NewCoDesign(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := uint64(0)
	set := func() {
		k++
		frame := EncodeSet(workload.FormatKey(k, KeySize), workload.FormatValue(k, cfg.ValueSize))
		if reply, _, err := c.Execute(0, frame); err != nil || string(reply) != "S" {
			t.Fatalf("SET %d: reply %q err %v", k, reply, err)
		}
	}
	gc := func(want uint64) {
		t.Helper()
		if _, entries, err := c.RunGC(); err != nil || entries != want {
			t.Fatalf("GC saw %d entries (err %v), want %d", entries, err, want)
		}
	}
	get := func(key uint64) {
		t.Helper()
		reply, _, err := c.Execute(0, EncodeGet(workload.FormatKey(key, KeySize)))
		if err != nil || !bytes.Equal(reply, append([]byte{'V'}, workload.FormatValue(key, cfg.ValueSize)...)) {
			t.Fatalf("GET %d: reply %q err %v", key, reply, err)
		}
	}
	for k < kvprog.MinBuckets+1+10 { // a doubling, then ten steps of it
		set()
	}
	uv, err := c.Ext().UserView()
	if err != nil {
		t.Fatal(err)
	}
	word := func(addr uint64) uint64 {
		w, err := uv.Load(addr, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	glob := func(off int16) uint64 { return uv.Base() + uint64(off) }
	old, cursor := word(glob(kvprog.GlobOld)), word(glob(kvprog.GlobCursor))
	if old == 0 || cursor != 10*kvprog.StepBuckets {
		t.Fatalf("old array %#x, cursor %d: want a doubling ten steps in", old, cursor)
	}
	gc(k)

	// Unlink the head of the next non-empty old bucket into Redo.
	b := cursor
	for word(uv.Base()+old+8*b) == 0 {
		b++
	}
	slot := uv.Base() + old + 8*b
	n := word(slot)
	for _, w := range []struct{ addr, v uint64 }{
		{glob(kvprog.GlobCursor), b}, {glob(kvprog.GlobRedo), n}, {slot, word(n + uint64(kvprog.NodeNext))},
	} {
		if err := uv.Store(w.addr, 8, w.v); err != nil {
			t.Fatal(err)
		}
	}
	gc(k)
	raw := make([]byte, KeySize)
	if err := uv.ReadInto(n+uint64(kvprog.NodeKey), raw); err != nil {
		t.Fatal(err)
	}
	var limbo uint64
	for key := uint64(1); key <= k; key++ {
		if bytes.Equal(workload.FormatKey(key, KeySize), raw) {
			limbo = key
		}
	}
	get(limbo)
	set()
	if redo := word(glob(kvprog.GlobRedo)); redo != 0 {
		t.Fatalf("the SET miss left Redo at %#x", redo)
	}
	gc(k)
	for key := uint64(1); key <= k; key++ {
		get(key)
	}
}

// TestCoDesignGCPause: with a short GCInterval the collector scans during a
// small run, and each scan's pause — netsim.GCPauseNs of its bucket words
// and entries, with the shared lock held — reaches the latency the clients
// see.
func TestCoDesignGCPause(t *testing.T) {
	cfg := smallCfg(workload.Mix90)
	c, err := NewCoDesign(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const preset = 2000
	for k := uint64(1); k <= preset; k++ {
		frame := EncodeSet(workload.FormatKey(k, KeySize), workload.FormatValue(k, cfg.ValueSize))
		if _, _, err := c.Execute(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	c.GCInterval = 4e6
	simCfg := sim.Config{Clients: 16, Servers: 2, RTTNs: 30_000, DurationNs: 2e7, WarmupFrac: 0.1, Seed: 1}
	r := sim.Run(simCfg, c)
	if c.GCRuns < 3 {
		t.Fatalf("GCRuns = %d over a 20 ms run at a 4 ms interval, want ≥ 3", c.GCRuns)
	}
	// Every scan visits at least the preset entries in at least as many
	// bucket words (the table doubles past one entry per bucket), and the
	// request that wakes the collector waits out the whole pause.
	pause := netsim.GCPauseNs(preset, preset)
	if got := r.Latency.Max(); got < int64(simCfg.RTTNs+pause) {
		t.Fatalf("max latency %d ns, want ≥ RTT + one scan's pause (%d ns)", got, int64(simCfg.RTTNs+pause))
	}
}

// TestFig2Shape runs a scaled-down Figure 2 and asserts the paper's
// ordering: KFlex > BMC > user space on throughput for every mix, with
// KFlex's margin over BMC growing as SETs increase.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	simCfg := sim.DefaultConfig()
	simCfg.DurationNs = 1e8 // model time: short enough to stay cheap under -race
	simCfg.Clients = 256

	type row struct{ user, bmc, kflex float64 }
	rows := map[string]row{}
	for _, mix := range []workload.Mix{workload.Mix90, workload.Mix10} {
		cfg := DefaultConfig(mix)
		cfg.ValueSize = ValueSizeBMC
		cfg.Preload = true

		user := NewUserSpace(cfg)
		bmc, err := NewBMC(cfg, simCfg.Servers)
		if err != nil {
			t.Fatal(err)
		}
		kf, err := NewKFlex(cfg, simCfg.Servers, false)
		if err != nil {
			t.Fatal(err)
		}
		r := row{
			user:  sim.Run(simCfg, user).Throughput,
			bmc:   sim.Run(simCfg, bmc).Throughput,
			kflex: sim.Run(simCfg, kf).Throughput,
		}
		if bmc.Errors != 0 {
			t.Errorf("mix %s: BMC hook failed %d requests", mix, bmc.Errors)
		}
		rows[mix.String()] = r
		bmc.Close()
		kf.Close()
		t.Logf("mix %s: user %.2f bmc %.2f kflex %.2f Mops/s",
			mix, r.user/1e6, r.bmc/1e6, r.kflex/1e6)
		if !(r.kflex > r.bmc && r.bmc >= r.user*0.95) {
			t.Errorf("mix %s: ordering violated", mix)
		}
	}
	// KFlex's advantage over BMC grows with the SET fraction (§5.1).
	adv90 := rows["90:10"].kflex / rows["90:10"].bmc
	adv10 := rows["10:90"].kflex / rows["10:90"].bmc
	if adv10 <= adv90 {
		t.Errorf("KFlex/BMC advantage should grow with SETs: 90:10=%.2f 10:90=%.2f", adv90, adv10)
	}
}
