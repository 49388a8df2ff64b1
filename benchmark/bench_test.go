package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"kflex/internal/apps/memcached"
	"kflex/internal/ds"
	"kflex/internal/workload"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

const specPath = "../BENCHMARK.json"

// BENCHMARK.json is written from the tables in metrics.go; this keeps the
// two in step and checks the limits the driver's contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(specPath, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is out of step with metrics.go; run go test -run TestSpec -update", specPath)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
	}
	if len(perLayer) > 128 || len(got) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes: over the contract's limits", len(perLayer), len(got))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

// keyID reads the decimal id back out of a workload.FormatKey key.
func keyID(t *testing.T, key []byte) uint64 {
	t.Helper()
	id, err := strconv.ParseUint(strings.TrimLeft(string(key), "k"), 10, 64)
	if err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	return id
}

// The pre-generated expected replies must equal what a plain map says when
// the frames themselves are decoded and replayed: the first pass from the
// preloaded state, every later pass from the previous pass's end state.
func TestMCOracleEqualsMapReplay(t *testing.T) {
	for _, getPct := range []int{100, 90, 10} {
		s := genMCStream(31, getPct, 5000, 0, workload.KeySpace)
		store := map[string][]byte{}
		for pass := 0; pass < 3; pass++ {
			want := s.steady
			if pass == 0 {
				want = s.first
			}
			for i, frame := range s.frames {
				var reply []byte
				switch frame[0] {
				case 's':
					key := frame[2 : 2+memcached.KeySize]
					store[string(key)] = frame[2+memcached.KeySize:]
					reply = []byte{'S'}
				case 'g':
					key := frame[1:]
					v, ok := store[string(key)]
					if !ok {
						v = workload.FormatValue(keyID(t, key), memcached.ValueSize)
					}
					reply = append([]byte{'V'}, v...)
				}
				if !bytes.Equal(reply, want[i]) {
					t.Fatalf("mix %d:%d pass %d op %d: map replay says %q, oracle %q", getPct, 100-getPct, pass, i, reply, want[i])
				}
			}
		}
	}
}

// The ds-mix oracle's steady expectations are a fixed point: a third and
// fourth replay of the ops on fresh native twins give them again.
func TestDSOracleIsSteady(t *testing.T) {
	w := newDSMix(10)
	w.generate(31)
	twins := w.nativeTwins()
	for pass := 0; pass < 4; pass++ {
		want := w.steady
		if pass == 0 {
			want = w.first
		}
		for i, op := range w.opsList {
			if got := applyDS(twins[i%len(dsKinds)], op); got != want[i] {
				t.Fatalf("pass %d op %d: twin says %+v, oracle %+v", pass, i, got, want[i])
			}
		}
	}
}

// The comparison against the native twin must notice a wrong value: the
// full check of a latency pass flags a lookup whose expected value is off
// by one bit, and the status check of a throughput pass a wrong found flag.
func TestDSMixFlagsWrongValue(t *testing.T) {
	w := newDSMix(10)
	w.generate(31)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	lat := make([]int64, w.ops())
	for pass := 0; pass < 2; pass++ {
		if _, failed := w.pass(passLatency, lat, nil); failed != 0 {
			t.Fatalf("pass %d: %d ops disagree with the native twins", pass, failed)
		}
	}
	hit := -1
	for i, op := range w.opsList {
		if op.op == ds.OpLookup && w.steady[i].found {
			hit = i
			break
		}
	}
	w.steady[hit].val ^= 1
	if _, failed := w.pass(passLatency, lat, nil); failed != 1 {
		t.Fatalf("a wrong expected value failed %d ops, want 1", failed)
	}
	w.steady[hit].val ^= 1
	w.steady[hit].found = false
	if _, failed := w.pass(passThroughput, make([]int64, w.slots()), nil); failed != 1 {
		t.Fatalf("a wrong expected status failed %d ops, want 1", failed)
	}
}

// A write whose fsync the device failed was never acknowledged, so the
// crash may lose it; every acknowledged write must survive, and the check
// must notice when one does not.
func TestLifecycleDurability(t *testing.T) {
	w := newLifecycle(10)
	w.generate(31)
	if _, obs, err := w.cycle(0, nil, false); err != nil || obs.lost != 0 {
		t.Fatalf("clean cycle: lost %d, err %v", obs.lost, err)
	}
	if _, obs, err := w.cycle(0, nil, true); err != nil || obs.lost != 0 {
		t.Fatalf("cycle with an unacknowledged tail write: lost %d, err %v", obs.lost, err)
	}
	// Claim an acknowledgement the store never gave: the check must call
	// that write lost.
	w.afterDelta2[string(w.base[7].key)] = []byte("acknowledged, says the oracle")
	if _, obs, err := w.cycle(0, nil, false); err == nil || obs.lost != 1 {
		t.Fatalf("a missing acknowledged write went unnoticed: lost %d, err %v", obs.lost, err)
	}
}

// runQuick runs one workload with -quick and returns the last line of its
// stdout, the driver's view of the run.
func runQuick(t *testing.T, name string, seed, trace int) contractLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	// Result files go under out/, which is ignored, not outside the checkout.
	dir, err := os.MkdirTemp("out", "test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	args := []string{"-quick", "-workload", name, "-seed", strconv.Itoa(seed), "-trace", strconv.Itoa(trace), "-out", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return line
}

// exactCounts are pure functions of the seed: two runs must agree on them
// to the last digit.
var exactCounts = regexp.MustCompile(`^(vm\..*_per_op|kie\.(guards_emitted|guards_elided|probes)|compile\.(lowered_insns|fused_sites)|verifier\.states_explored|` +
	`durable\.(appends|syncs)_per_op|durable\.replayed_records|supervisor\.resync_ops_per_cycle|netsim\.model_ext_ns_per_op)$`)

func TestQuickRunsRepeatCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload five times")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := runQuick(t, w.Name, 31, 1), runQuick(t, w.Name, 31, 1)
			if !a.Correct || !b.Correct {
				t.Fatalf("failed ops: %d and %d", a.Failed, b.Failed)
			}
			if !reflect.DeepEqual(keys(a.Metrics), names(perLayer)) {
				t.Fatalf("a traced run must report exactly the per-layer table, got %v", keys(a.Metrics))
			}
			for name, m := range a.Metrics {
				if exactCounts.MatchString(name) && m.Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v with the same seed", name, m.Value, b.Metrics[name].Value)
				}
			}
			x, y := a.Metrics["bench.allocs_per_op"].Value, b.Metrics["bench.allocs_per_op"].Value
			if math.Abs(x-y) > 0.02*math.Max(x, y) {
				t.Errorf("bench.allocs_per_op: %v then %v, more than 2%% apart", x, y)
			}
			// The WAL must stay silent where the workload is meant to bypass it.
			if w.Name == "mc-read" || w.Name == "ds-mix" {
				if v := a.Metrics["durable.appends_per_op"].Value; v != 0 {
					t.Errorf("durable.appends_per_op = %v on a workload that never writes", v)
				}
			}
			if w.Name == "mc-read" || w.Name == "mc-write" {
				if v := a.Metrics["apps.offloaded_share"].Value; v != 1 {
					t.Errorf("apps.offloaded_share = %v with no fault injected", v)
				}
			}

			e := runQuick(t, w.Name, 32, 0)
			if !e.Correct || e.Failed != 0 {
				t.Errorf("seed 32: %d of %d ops failed", e.Failed, e.Attempted)
			}
			if !reflect.DeepEqual(keys(e.Metrics), names(endToEnd)) {
				t.Errorf("an untraced run must report exactly the end-to-end table, got %v", keys(e.Metrics))
			}
			for name, m := range e.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

func keys[V any](m map[string]V) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

func names(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	ops := metricDef{"ops_per_s", "ops/s", higher, 0.10}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 40} }
	loose := func(v float64) summary { return summary{Value: v, Q1: v * 0.9, Q3: v * 1.1, N: 40} }
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(95), verdictWithin},
		{tight(100), tight(85), verdictWorse},
		{tight(100), tight(115), verdictBetter},
		{tight(100), loose(95), verdictUnresolved},
		{loose(100), loose(85), verdictWorse},
	} {
		if got := judge(ops, c.a, c.b); got != c.want {
			t.Errorf("judge(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
}
