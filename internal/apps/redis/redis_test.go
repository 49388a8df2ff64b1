package redis

import (
	"bytes"
	"testing"

	"kflex/internal/apps/offload"
	"kflex/internal/ds"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

func TestRESPRoundTrip(t *testing.T) {
	frame := EncodeCommand([]byte("SET"), []byte("key1"), []byte("value1"))
	args, err := ParseCommand(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[0]) != "SET" || string(args[2]) != "value1" {
		t.Fatalf("args = %q", args)
	}
	if _, err := ParseCommand([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseCommand([]byte("*1\r\n$5\r\nab\r\n")); err == nil {
		t.Fatal("short bulk accepted")
	}
}

func TestKeyDBHandle(t *testing.T) {
	k := offload.NewStore()
	key := workload.FormatKey(3, KeySize)
	val := workload.FormatValue(3, ValueSize)
	reply := Codec.Handle(k, EncodeCommand([]byte("GET"), key), nil)
	if string(reply) != "$-1\r\n" {
		t.Fatalf("miss = %q", reply)
	}
	reply = Codec.Handle(k, EncodeCommand([]byte("SET"), key, val), reply)
	if string(reply) != "+OK\r\n" {
		t.Fatalf("set = %q", reply)
	}
	reply = Codec.Handle(k, EncodeCommand([]byte("GET"), key), reply)
	if !bytes.Contains(reply, val) {
		t.Fatalf("get = %q", reply)
	}
}

func TestKFlexRedisSetGet(t *testing.T) {
	cfg := DefaultConfig(workload.Mix50)
	cfg.Preload = false
	k, err := NewKFlex(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	key := workload.FormatKey(5, KeySize)
	val := workload.FormatValue(5, ValueSize)
	reply, _, err := k.Execute(0, EncodeCommand([]byte("GET"), key))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "$-1\r\n" {
		t.Fatalf("miss = %q", reply)
	}
	if _, _, err := k.Execute(0, EncodeCommand([]byte("SET"), key, val)); err != nil {
		t.Fatal(err)
	}
	reply, extNs, err := k.Execute(0, EncodeCommand([]byte("GET"), key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(reply, val) {
		t.Fatalf("get = %q", reply)
	}
	if extNs <= 0 {
		t.Fatal("no modeled cost")
	}
}

func TestZAddSystems(t *testing.T) {
	cfg := DefaultConfig(workload.Mix50)
	z, err := NewZAddKFlex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer z.Close()
	if _, err := z.off.Op(ds.OpUpdate, 42, 777); err != nil {
		t.Fatal(err)
	}
	res, err := z.off.Op(ds.OpLookup, 42, 0)
	if err != nil || res.Ret != ds.RetFound || z.off.Out() != 777 {
		t.Fatalf("lookup = %+v, score %d, %v", res, z.off.Out(), err)
	}
}

// TestFig4Shape: KFlex-Redis beats KeyDB but by less than Memcached's
// margin, because both still pay the TCP stack (§5.1).
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	simCfg := sim.DefaultConfig()
	simCfg.DurationNs = 2e8
	simCfg.Clients = 256
	cfg := DefaultConfig(workload.Mix50)
	user := NewKeyDB(cfg)
	kf, err := NewKFlex(cfg, simCfg.Servers)
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close()
	ru := sim.Run(simCfg, user)
	rk := sim.Run(simCfg, kf)
	ratio := rk.Throughput / ru.Throughput
	t.Logf("fig4 50:50: user %.2f kflex %.2f Mops/s (%.2fx)", ru.Throughput/1e6, rk.Throughput/1e6, ratio)
	if ratio < 1.2 || ratio > 3.5 {
		t.Errorf("KFlex/KeyDB ratio %.2f outside the paper's band", ratio)
	}
}

// TestFig6Shape: offloaded ZADD outperforms single-threaded user space.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	simCfg := sim.DefaultConfig()
	simCfg.DurationNs = 2e8
	simCfg.Clients = 64
	simCfg.Servers = 1 // §5.2: a single thread (global ZADD lock)
	var user ZAddUser
	kf, err := NewZAddKFlex(DefaultConfig(workload.Mix50))
	if err != nil {
		t.Fatal(err)
	}
	defer kf.Close()
	ru := sim.Run(simCfg, user)
	rk := sim.Run(simCfg, kf)
	ratio := rk.Throughput / ru.Throughput
	t.Logf("fig6 ZADD: user %.3f kflex %.3f Mops/s (%.2fx)", ru.Throughput/1e6, rk.Throughput/1e6, ratio)
	if ratio < 1.1 {
		t.Errorf("offloaded ZADD should win (got %.2fx)", ratio)
	}
}
