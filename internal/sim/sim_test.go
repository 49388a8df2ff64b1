package sim

import (
	"math"
	"testing"
)

// fixedService returns a constant service time.
type fixedService struct{ ns float64 }

func (f fixedService) Serve(cpu int, now float64) float64 { return f.ns }

func TestClosedLoopThroughputBounds(t *testing.T) {
	// With service S, servers c, clients N, RTT R:
	// server-bound throughput = c/S; client-bound = N/(R+S).
	cfg := Config{
		Clients: 100, Servers: 4, RTTNs: 10_000,
		DurationNs: 5e8, WarmupFrac: 0.1, Seed: 1,
	}
	r := Run(cfg, fixedService{ns: 1000})
	serverBound := 4.0 / 1000e-9
	clientBound := 100.0 / (11_000e-9)
	expect := math.Min(serverBound, clientBound)
	if r.Throughput < expect*0.9 || r.Throughput > expect*1.1 {
		t.Fatalf("throughput %.0f, want ~%.0f", r.Throughput, expect)
	}
}

func TestClientBoundRegime(t *testing.T) {
	// Few clients, fast server: throughput = clients/(RTT+S).
	cfg := Config{
		Clients: 8, Servers: 8, RTTNs: 100_000,
		DurationNs: 5e8, WarmupFrac: 0.1, Seed: 2,
	}
	r := Run(cfg, fixedService{ns: 500})
	expect := 8.0 / (100_500e-9)
	if r.Throughput < expect*0.9 || r.Throughput > expect*1.1 {
		t.Fatalf("throughput %.0f, want ~%.0f", r.Throughput, expect)
	}
	// Unloaded latency ≈ RTT + S.
	p50 := float64(r.Latency.Quantile(0.5))
	if p50 < 100_000 || p50 > 110_000 {
		t.Fatalf("p50 = %.0f, want ~100.5µs", p50)
	}
}

func TestQueueingRaisesLatency(t *testing.T) {
	// Saturated server: latency far exceeds RTT + S.
	cfg := Config{
		Clients: 200, Servers: 1, RTTNs: 10_000,
		DurationNs: 5e8, WarmupFrac: 0.1, Seed: 3,
	}
	r := Run(cfg, fixedService{ns: 2000})
	if p50 := r.Latency.Quantile(0.5); float64(p50) < 10*12_000 {
		t.Fatalf("saturation p50 = %d, want queueing-dominated", p50)
	}
}

func TestFasterSystemWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationNs = 2e8
	cfg.Clients = 128
	fast := Run(cfg, fixedService{ns: 1000})
	slow := Run(cfg, fixedService{ns: 5000})
	if fast.Throughput <= slow.Throughput {
		t.Fatalf("fast %.0f <= slow %.0f", fast.Throughput, slow.Throughput)
	}
	if fast.Latency.Quantile(0.99) >= slow.Latency.Quantile(0.99) {
		t.Fatal("fast system has worse p99")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationNs = 1e8
	cfg.Clients = 64
	a := Run(cfg, fixedService{ns: 1500})
	b := Run(cfg, fixedService{ns: 1500})
	if a.Ops != b.Ops || a.Throughput != b.Throughput {
		t.Fatal("same seed diverged")
	}
}

func TestWarmupDiscard(t *testing.T) {
	cfg := Config{
		Clients: 10, Servers: 2, RTTNs: 1000,
		DurationNs: 1e8, WarmupFrac: 0.5, Seed: 4,
	}
	half := Run(cfg, fixedService{ns: 1000})
	cfg.WarmupFrac = 0.0
	full := Run(cfg, fixedService{ns: 1000})
	if half.Ops >= full.Ops {
		t.Fatal("warmup discard did not reduce counted ops")
	}
}
