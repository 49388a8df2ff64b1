package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/sim"
	"kflex/internal/workload"
)

func runExperiment(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, Options{Quick: true, Out: &buf}); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestTab1(t *testing.T) {
	out := runExperiment(t, "tab1")
	for _, want := range []string{"SPIN", "VINO", "eBPF", "KFlex"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 missing %q", want)
		}
	}
}

func TestTab3(t *testing.T) {
	out := runExperiment(t, "tab3")
	// The paper's qualitative pattern: hashmap 0% elided, skiplist
	// lookup 100% elided.
	if !strings.Contains(out, "hashmap lookup") || !strings.Contains(out, "skiplist lookup") {
		t.Fatalf("tab3 rows missing:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "hashmap") && !strings.Contains(line, "0%") {
			t.Errorf("hashmap should elide 0%%: %s", line)
		}
	}
}

func TestAblations(t *testing.T) {
	if out := runExperiment(t, "abl-probe"); !strings.Contains(out, "probe accesses") {
		t.Errorf("abl-probe output:\n%s", out)
	}
	if out := runExperiment(t, "abl-xlat"); !strings.Contains(out, "xlat sites") {
		t.Errorf("abl-xlat output:\n%s", out)
	}
	if out := runExperiment(t, "abl-perfmode"); !strings.Contains(out, "guards/op (PM)") {
		t.Errorf("abl-perfmode output:\n%s", out)
	}
}

// TestFig6Quick names the two systems Figure 6 compares; the golden below
// pins their numbers.
func TestFig6Quick(t *testing.T) {
	out := runExperiment(t, "fig6")
	if !strings.Contains(out, "KFlex") || !strings.Contains(out, "Redis (user space)") {
		t.Fatalf("fig6 output:\n%s", out)
	}
}

// TestModelExperimentsGolden pins the model-time experiments whose output is
// counts only — Table 3's per-operation guard attribution (read from each
// program's label table), the four ablations — and Figure 6, whose two
// systems are priced from counted instructions and netsim's constants.
// testdata/model_golden.txt is exactly what `kfbench -run
// tab3,abl-elision,abl-probe,abl-perfmode,abl-xlat,fig6 -quick` prints; a
// change that is meant to keep the emitted programs, the pipeline and the
// cost model must leave it alone.
func TestModelExperimentsGolden(t *testing.T) {
	var got strings.Builder
	for i, id := range []string{"tab3", "abl-elision", "abl-probe", "abl-perfmode", "abl-xlat", "fig6"} {
		if i > 0 {
			got.WriteString("\n")
		}
		got.WriteString(runExperiment(t, id))
	}
	want, err := os.ReadFile("testdata/model_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("output differs from testdata/model_golden.txt; got:\n%s", got.String())
	}
}

// TestModelTimeDeterministic: every system the figures simulate, built twice
// from one config, gives the same result. A service time is counted work
// priced by netsim, so nothing in it depends on how fast Go code ran.
func TestModelTimeDeterministic(t *testing.T) {
	simCfg := sim.Config{Clients: 32, Servers: 4, RTTNs: 30_000, DurationNs: 1e7, WarmupFrac: 0.1, Seed: 1}
	mc := memcached.DefaultConfig(workload.Mix50)
	mc.Preload = false
	rd := redis.DefaultConfig(workload.Mix50)
	rd.Preload = false
	systems := []struct {
		name  string
		build func() (sim.System, error)
	}{
		{"UserSpace", func() (sim.System, error) { return memcached.NewUserSpace(mc), nil }},
		{"BMC", func() (sim.System, error) { return memcached.NewBMC(mc, simCfg.Servers) }},
		{"KFlex", func() (sim.System, error) { return memcached.NewKFlex(mc, simCfg.Servers, false) }},
		{"KeyDB", func() (sim.System, error) { return redis.NewKeyDB(rd), nil }},
		{"ZAddUser", func() (sim.System, error) { return redis.ZAddUser{}, nil }},
		{"ZAddKFlex", func() (sim.System, error) { return redis.NewZAddKFlex(rd) }},
		{"CoDesign", func() (sim.System, error) {
			cd, err := memcached.NewCoDesign(mc, simCfg.Servers)
			if err == nil {
				cd.GCInterval = 4e6 // two scans in the run
			}
			return cd, err
		}},
	}
	for _, s := range systems {
		var r [2]sim.Result
		for i := range r {
			sys, err := s.build()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			r[i] = sim.Run(simCfg, sys)
			if c, ok := sys.(interface{ Close() }); ok {
				c.Close()
			}
		}
		a, b := r[0], r[1]
		if a.Ops == 0 || a.Ops != b.Ops || a.Throughput != b.Throughput ||
			a.Latency.Quantile(0.5) != b.Latency.Quantile(0.5) || a.Latency.Quantile(0.99) != b.Latency.Quantile(0.99) {
			t.Errorf("%s: two builds diverged: %v (%d ops) vs %v (%d ops)", s.name, a, a.Ops, b, b.Ops)
		}
	}
}

// TestUnknownExperiment pins the experiment table: kfbench -list is exactly
// the paper's 12 artefacts in order, every listed ID dispatches, and an
// unknown ID is an error that names what exists.
func TestUnknownExperiment(t *testing.T) {
	want := "tab1 fig2 fig3 fig4 fig5 fig6 fig7 tab3 abl-elision abl-probe abl-perfmode abl-xlat"
	if got := strings.Join(Experiments, " "); got != want {
		t.Fatalf("Experiments = %q, want %q", got, want)
	}
	for _, e := range experiments {
		if e.Run == nil {
			t.Errorf("experiment %q is listed but dispatches to nothing", e.ID)
		}
	}
	err := Run("nope", Options{Quick: true, Out: &bytes.Buffer{}})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "abl-xlat") {
		t.Errorf("unknown-ID error does not name the ID and the table: %v", err)
	}
}
