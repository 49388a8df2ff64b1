package memcached

import (
	"bytes"
	"testing"

	"kflex/internal/apps/kvprog"
	"kflex/internal/apps/offload"
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
	entries, err := c.RunGC()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 100 {
		t.Fatalf("GC saw %d entries, want 100", entries)
	}
}

// TestFig2Shape runs a scaled-down Figure 2 and asserts the paper's
// ordering: KFlex > BMC > user space on throughput for every mix, with
// KFlex's margin over BMC growing as SETs increase.
func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	if raceEnabled {
		t.Skip("throughput-shape ordering is not meaningful under the race detector")
	}
	simCfg := sim.DefaultConfig()
	simCfg.DurationNs = 3e8
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
