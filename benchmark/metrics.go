package main

// The metric and workload tables are the single source of truth for
// BENCHMARK.json (TestSpecMatchesBenchmarkJSON keeps the file in step) and
// for -compare's bounds.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are what a user of the offloaded service sees. Bounds are the
// share of the parent's median a metric may worsen by. All three sit at the
// contract's cap of 25%: the benchmark was designed with 10/10/25, but the
// reference sandbox is slowed from outside by up to half for spells of
// seconds to minutes. A run reports quiet values (stats.go) to see through
// the short spells; the bound is there for the long ones (README.md records
// the spreads measured beside each bound).
//
// The 99th percentile is deliberately not here. Two back-to-back sets of
// ten runs of one commit differed by 27-34% on it, beyond any bound the
// contract allows, so it is printed with the end-to-end table and reported
// as the per-layer metric bench.p99_us, without a bound.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", higher, 0.25},
	{"p50_us", "us", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// p99 is printed with the end-to-end table and kept in result files, but
// is not part of the gated set.
var p99 = metricDef{"p99_us", "us", lower, 0}

// perLayer metrics have no bound. Every workload reports every name; a
// metric whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"kflex.run_ns", "ns", lower, 0},
	{"kflex.load_cold_us", "us", lower, 0},
	{"kflex.load_cached_us", "us", lower, 0},
	{"kflex.par_efficiency", "ratio", higher, 0},

	{"vm.null_run_ns", "ns", lower, 0},
	{"vm.ns_per_insn", "ns", lower, 0},
	{"vm.insns_per_op", "count", lower, 0},
	{"vm.dispatches_per_op", "count", lower, 0},
	{"vm.fused_per_op", "count", higher, 0},
	{"vm.guards_per_op", "count", lower, 0},
	{"vm.helper_calls_per_op", "count", lower, 0},
	{"vm.cancelled_share", "ratio", lower, 0},

	{"kernel.helper_call_ns", "ns", lower, 0},

	{"heap.populated_pages", "count", lower, 0},
	{"alloc.allocs_per_op", "count", lower, 0},
	{"alloc.frees_per_op", "count", lower, 0},
	{"alloc.refills_per_kop", "count", lower, 0},

	{"insn.decode_us", "us", lower, 0},
	{"verifier.verify_us", "us", lower, 0},
	{"kie.instrument_us", "us", lower, 0},
	{"compile.lower_us", "us", lower, 0},
	{"compile.link_us", "us", lower, 0},
	{"verifier.states_explored", "count", lower, 0},
	{"kie.guards_emitted", "count", lower, 0},
	{"kie.guards_elided", "count", higher, 0},
	{"kie.probes", "count", lower, 0},
	{"compile.lowered_insns", "count", lower, 0},
	{"compile.fused_sites", "count", higher, 0},

	{"supervisor.run_self_ns", "ns", lower, 0},
	{"supervisor.par_efficiency", "ratio", higher, 0},
	{"supervisor.init_cold_us", "us", lower, 0},
	{"supervisor.reload_warm_us", "us", lower, 0},
	{"supervisor.migrate_us", "us", lower, 0},
	{"supervisor.migrate_pause_us", "us", lower, 0},
	{"supervisor.resync_ops_per_cycle", "count", lower, 0},

	{"apps.execute_self_ns", "ns", lower, 0},
	{"apps.parse_ns", "ns", lower, 0},
	{"apps.offloaded_share", "ratio", higher, 0},

	{"durable.set_ns", "ns", lower, 0},
	{"durable.get_ns", "ns", lower, 0},
	{"durable.op_share", "ratio", lower, 0},
	{"durable.appends_per_op", "count", lower, 0},
	{"durable.syncs_per_op", "count", lower, 0},
	{"durable.wal_bytes_per_user_byte", "ratio", lower, 0},
	{"durable.recover_us", "us", lower, 0},
	{"durable.replayed_records", "count", lower, 0},
	{"durable.lost_acked_writes", "count", lower, 0},

	{"ds.hashmap.ns_per_op", "ns", lower, 0},
	{"ds.rbtree.ns_per_op", "ns", lower, 0},
	{"ds.skiplist.ns_per_op", "ns", lower, 0},
	{"ds.hashmap.insns_per_op", "count", lower, 0},
	{"ds.rbtree.insns_per_op", "count", lower, 0},
	{"ds.skiplist.insns_per_op", "count", lower, 0},
	{"ds.native_ratio", "ratio", lower, 0},

	{"netsim.model_ext_ns_per_op", "ns", lower, 0},

	{"bench.gen_s", "s", lower, 0},
	{"bench.allocs_per_op", "allocs/op", lower, 0},
	{"bench.p99_us", "us", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},
	{"trace.coverage", "ratio", higher, 0},
	{"trace.pipeline_coverage", "ratio", higher, 0},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	new  func(scale int) scenario
}

var workloads = []workloadDef{
	{"mc-read", "100% GET hits on the supervised+durable deployment, 1 client: vm entry/exit and helpers dominate, the WAL is silent",
		func(s int) scenario { return newMC(mcRead, s) }},
	{"mc-write", "10:90 GET:SET on the same deployment, 1 client: write-through (flush policy SyncEvery:1 on a MemDir, in every run) makes the durable WAL most of an op",
		func(s int) scenario { return newMC(mcWrite, s) }},
	{"mc-par", "90:10 mix, 2 clients sharing one deployment: the only workload that contends Supervisor.mu and Store.mu",
		func(s int) scenario { return newMCPar(s) }},
	{"ds-mix", "bare hashmap/rbtree/skiplist extensions, 50/40/10 lookup/update/delete: dispatch-bound loops with alloc churn, no supervisor or WAL",
		func(s int) scenario { return newDSMix(s) }},
	{"lifecycle", "one op is an operator cycle (cold load, warm reload, migrate, crash, WAL recovery): verifier, compiler and transition paths",
		func(s int) scenario { return newLifecycle(s) }},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 20

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // bound 0 is omitted: per-layer metrics have none
}

func spec() benchSpec {
	return benchSpec{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
