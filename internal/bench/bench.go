// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-reported vs. measured values.
// Absolute numbers come from a simulated testbed priced in model time (see
// DESIGN.md); every experiment but Figure 5 is a pure function of seeds and
// counted work. The shapes — who wins, by what factor, where the gaps
// open — are the reproduced result.
package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"kflex"
	"kflex/internal/apps/memcached"
	"kflex/internal/apps/redis"
	"kflex/internal/ds"
	"kflex/internal/netsim"
	"kflex/internal/sim"
	"kflex/internal/verifier"
	"kflex/internal/workload"
)

// Options control experiment scale.
type Options struct {
	// Quick shrinks populations and simulated durations (CI-friendly).
	Quick bool
	Out   io.Writer
}

func (o Options) duration() float64 {
	if o.Quick {
		return 2e8
	}
	return 1e9
}

func (o Options) clients() int {
	if o.Quick {
		return 256
	}
	return 1024
}

func (o Options) dsElems() uint64 {
	if o.Quick {
		return 8 << 10
	}
	return 64 << 10
}

func (o Options) dsOps() int {
	if o.Quick {
		return 2_000
	}
	return 20_000
}

// experiments is the one table of runnable experiments, in the paper's
// order; Experiments, Run and kfbench -list are all read from it.
var experiments = []struct {
	ID  string
	Run func(Options) error
}{
	{"tab1", Tab1},
	{"fig2", func(o Options) error { return Fig23(o, 8) }},
	{"fig3", func(o Options) error { return Fig23(o, 16) }},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"tab3", Tab3},
	{"abl-elision", AblElision},
	{"abl-probe", AblProbe},
	{"abl-perfmode", AblPerfMode},
	{"abl-xlat", AblXlat},
}

// Experiments lists every runnable experiment ID.
var Experiments = func() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	return ids
}()

// Run executes the experiment named id.
func Run(id string, o Options) error {
	for _, e := range experiments {
		if e.ID == id {
			return e.Run(o)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments)
}

// Tab1 prints the qualitative tradeoff summary of Table 1.
func Tab1(o Options) error {
	fmt.Fprintln(o.Out, "Table 1: approaches to safe kernel extensibility")
	fmt.Fprintf(o.Out, "%-42s %-12s %-12s %-12s\n", "Approach", "Flexibility", "Performance", "Practicality")
	for _, r := range [][4]string{
		{"Safe languages (e.g., SPIN)", "yes", "yes", "no"},
		{"Software Fault Isolation (e.g., VINO)", "yes", "no", "yes"},
		{"Static verification (e.g., eBPF)", "no", "yes", "yes"},
		{"KFlex (this repository)", "yes", "yes", "yes"},
	} {
		fmt.Fprintf(o.Out, "%-42s %-12s %-12s %-12s\n", r[0], r[1], r[2], r[3])
	}
	return nil
}

// simConfig is §5's testbed at the options' scale with the given number of
// server threads.
func (o Options) simConfig(servers int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Servers = servers
	cfg.DurationNs = o.duration()
	cfg.Clients = o.clients()
	return cfg
}

// namedSystem is one row of a model-time figure.
type namedSystem struct {
	name string
	sys  sim.System
}

// runRows simulates each system under cfg and prints its row: prefix (the
// mix column, or nothing), the name padded to width, Mops/s and p99 (µs).
func runRows(o Options, cfg sim.Config, prefix string, width int, systems ...namedSystem) {
	for _, s := range systems {
		r := sim.Run(cfg, s.sys)
		fmt.Fprintf(o.Out, "%s%-*s %14.3f %14.1f\n",
			prefix, width, s.name, r.Throughput/1e6, float64(r.Latency.Quantile(0.99))/1e3)
	}
}

// Fig23 reproduces Figures 2 and 3: Memcached throughput and p99 for three
// GET:SET mixes across user space, BMC, and KFlex, at the given thread
// count.
func Fig23(o Options, servers int) error {
	fmt.Fprintf(o.Out, "Figure %d: Memcached (%d threads), 32B keys/values, Zipf 0.99\n",
		map[int]int{8: 2, 16: 3}[servers], servers)
	fmt.Fprintf(o.Out, "%-8s %-14s %14s %14s\n", "GETS:SETS", "system", "Mops/s", "p99 (µs)")
	simCfg := o.simConfig(servers)
	for _, mix := range workload.Mixes {
		cfg := memcached.DefaultConfig(mix)
		cfg.ValueSize = memcached.ValueSizeBMC // BMC caps values at key size
		bmc, err := memcached.NewBMC(cfg, servers)
		if err != nil {
			return err
		}
		kf, err := memcached.NewKFlex(cfg, servers, false)
		if err != nil {
			bmc.Close()
			return err
		}
		runRows(o, simCfg, fmt.Sprintf("%-8s ", mix), 14,
			namedSystem{"User space", memcached.NewUserSpace(cfg)}, namedSystem{"BMC", bmc}, namedSystem{"KFlex", kf})
		bmc.Close()
		kf.Close()
	}
	return nil
}

// Fig4 reproduces Figure 4: Redis over TCP at sk_skb vs KeyDB.
func Fig4(o Options) error {
	fmt.Fprintln(o.Out, "Figure 4: Redis, 32B keys / 64B values, Zipf 0.99, 8 threads")
	fmt.Fprintf(o.Out, "%-8s %-20s %14s %14s\n", "GETS:SETS", "system", "Mops/s", "p99 (µs)")
	simCfg := o.simConfig(8)
	for _, mix := range workload.Mixes {
		cfg := redis.DefaultConfig(mix)
		kf, err := redis.NewKFlex(cfg, simCfg.Servers)
		if err != nil {
			return err
		}
		runRows(o, simCfg, fmt.Sprintf("%-8s ", mix), 20,
			namedSystem{"User space (KeyDB)", redis.NewKeyDB(cfg)}, namedSystem{"KFlex", kf})
		kf.Close()
	}
	return nil
}

// dsOpNames orders Figure 5's panels.
var dsOpNames = []string{"update", "lookup", "delete"}

// Fig5 reproduces Figure 5: single-threaded update/lookup/delete for the
// five data structures and two sketches under KMod (native), KFlex-PM, and
// KFlex. Two latency estimates are printed: measured wall clock (this
// repository's engine is an interpreter) and the JIT cost model used for
// end-to-end figures (see netsim). KMod's model column is its wall clock,
// so Figure 5 is the one experiment whose output varies between runs.
func Fig5(o Options) error {
	elems := o.dsElems()
	ops := o.dsOps()
	fmt.Fprintln(o.Out, "Measured (wall clock): this experiment alone times Go code, so it varies run to run")
	fmt.Fprintf(o.Out, "Figure 5: data-structure offloads, %d elements, single thread\n", elems)
	fmt.Fprintf(o.Out, "%-12s %-8s %-10s %14s %16s\n",
		"structure", "op", "system", "wall ns/op", "modeled ns/op")
	for _, kind := range ds.Kinds {
		n := elems
		opCount := ops
		if kind == ds.KindLinkedList {
			// The paper's list lookups/deletes traverse 64K elements;
			// each op is O(n), so run fewer of them.
			opCount = ops / 100
			if opCount < 30 {
				opCount = 30
			}
		}
		for _, system := range []string{"KMod", "KFlex-PM", "KFlex"} {
			rows, err := runFig5Cell(kind, system, n, opCount)
			if err != nil {
				return err
			}
			for _, op := range dsOpNames {
				r := rows[op]
				fmt.Fprintf(o.Out, "%-12s %-8s %-10s %14.1f %16.1f\n",
					kind, op, system, r.wallNs, r.modelNs)
			}
		}
	}
	return nil
}

type fig5Row struct {
	wallNs  float64
	modelNs float64
}

// runFig5Cell populates a structure with n elements and measures each op.
func runFig5Cell(kind ds.Kind, system string, n uint64, ops int) (map[string]fig5Row, error) {
	var store ds.Store
	var off *ds.Offloaded
	switch system {
	case "KMod":
		store = ds.NewNative(kind)
	case "KFlex-PM", "KFlex":
		rt := kflex.NewRuntime()
		var err error
		off, err = ds.Load(rt, kind, system == "KFlex-PM")
		if err != nil {
			return nil, err
		}
		defer off.Close()
		store = off
	}
	if kind == ds.KindLinkedList && n > 16<<10 {
		n = 16 << 10 // list population is cheap but delete/lookup are O(n)
	}
	for k := uint64(1); k <= n; k++ {
		store.Update(k, k*3)
	}
	rows := map[string]fig5Row{}
	// A simple LCG drives key choice identically for every system.
	lcg := uint64(12345)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33 % n
	}
	measure := func(op string, fn func(k uint64)) {
		var before, after uint64
		if off != nil {
			before = off.Insns()
		}
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			fn(next() + 1)
		}
		wall := float64(time.Since(t0).Nanoseconds()) / float64(ops)
		model := wall
		if off != nil {
			after = off.Insns()
			model = netsim.ModelExtNs((after-before)/uint64(ops), 3)
		}
		rows[op] = fig5Row{wallNs: wall, modelNs: model}
	}
	measure("update", func(k uint64) { store.Update(k, k) })
	measure("lookup", func(k uint64) { store.Lookup(k) })
	// Delete then reinsert to keep the population steady; both halves are
	// timed, so the printed figure is a delete+update pair for every
	// engine equally.
	measure("delete", func(k uint64) {
		if store.Delete(k) {
			store.Update(k, k)
		}
	})
	return rows, nil
}

// Fig6 reproduces Figure 6: ZADD throughput and p99, single server thread.
func Fig6(o Options) error {
	fmt.Fprintln(o.Out, "Figure 6: Redis ZADD (hashmap + skiplist), 1 server thread")
	fmt.Fprintf(o.Out, "%-20s %14s %14s\n", "system", "Mops/s", "p99 (µs)")
	simCfg := o.simConfig(1)
	simCfg.Clients = 64
	kf, err := redis.NewZAddKFlex(redis.DefaultConfig(workload.Mix50))
	if err != nil {
		return err
	}
	defer kf.Close()
	runRows(o, simCfg, "", 20, namedSystem{"Redis (user space)", redis.ZAddUser{}}, namedSystem{"KFlex", kf})
	return nil
}

// Fig7 reproduces Figure 7: the co-designed Memcached (user-space GC every
// second over the shared heap) vs user space.
func Fig7(o Options) error {
	fmt.Fprintln(o.Out, "Figure 7: co-designed Memcached (user-space GC thread, shared heap)")
	fmt.Fprintf(o.Out, "%-8s %-20s %14s %14s\n", "GETS:SETS", "system", "Mops/s", "p99 (µs)")
	simCfg := o.simConfig(8)
	for _, mix := range workload.Mixes {
		cfg := memcached.DefaultConfig(mix)
		cd, err := memcached.NewCoDesign(cfg, simCfg.Servers)
		if err != nil {
			return err
		}
		runRows(o, simCfg, fmt.Sprintf("%-8s ", mix), 20,
			namedSystem{"User space", memcached.NewUserSpace(cfg)}, namedSystem{"KFlex co-designed", cd})
		cd.Close()
	}
	return nil
}

// Tab3 reproduces Table 3: per-operation guard instructions emitted by the
// KFlex SFI and the share elided by the verifier's range analysis.
func Tab3(o Options) error {
	fmt.Fprintln(o.Out, "Table 3: SFI guards elided by range analysis (per operation)")
	fmt.Fprintf(o.Out, "%-24s %10s %10s %10s\n", "Function", "guards", "elided", "elided %")
	kinds := []ds.Kind{ds.KindLinkedList, ds.KindHashMap, ds.KindRBTree, ds.KindSkipList}
	for _, kind := range kinds {
		prog, labels := ds.ProgramSections(kind)
		an, err := verifier.Verify(prog, verifier.Config{
			Mode:     verifier.ModeKFlex,
			Hook:     kflex.HookBench,
			Kernel:   kflex.NewRuntime().Kernel(),
			HeapSize: ds.HeapSize(kind),
		})
		if err != nil {
			return fmt.Errorf("tab3: %s: %w", kind, err)
		}
		// Determine each operation's instruction range from the labels.
		type section struct {
			name  string
			start int
		}
		var secs []section
		for _, op := range append([]string{"init"}, dsOpNames...) {
			if pos, ok := labels[op]; ok {
				secs = append(secs, section{op, pos})
			}
		}
		sort.Slice(secs, func(i, j int) bool { return secs[i].start < secs[j].start })
		rangeOf := func(op string) (int, int) {
			for i, s := range secs {
				if s.name == op {
					end := len(prog)
					if i+1 < len(secs) {
						end = secs[i+1].start
					}
					return s.start, end
				}
			}
			return 0, 0
		}
		for _, op := range dsOpNames {
			lo, hi := rangeOf(op)
			var total, elided int
			for i := lo; i < hi; i++ {
				f := an.Facts[i]
				if !f.HeapAccess || !f.Manip {
					continue
				}
				total++
				if !f.Guard {
					elided++
				}
			}
			pct := 100.0
			if total > 0 {
				pct = 100 * float64(elided) / float64(total)
			}
			fmt.Fprintf(o.Out, "%-24s %10d %10d %9.0f%%\n",
				fmt.Sprintf("%s %s", kind, op), total, elided, pct)
		}
	}
	fmt.Fprintln(o.Out, "(sketches omitted: every access verifies statically, as in the paper)")
	return nil
}

// AblElision quantifies §5.4 at runtime: guard instructions executed with
// and without range-analysis elision.
func AblElision(o Options) error {
	fmt.Fprintln(o.Out, "Ablation: SFI guards executed with vs without range-analysis elision")
	fmt.Fprintf(o.Out, "%-12s %16s %16s %12s\n", "structure", "guards/op (on)", "guards/op (off)", "reduction")
	for _, kind := range []ds.Kind{ds.KindLinkedList, ds.KindSkipList, ds.KindRBTree, ds.KindCountMin} {
		on, err := guardsPerOp(kind, false)
		if err != nil {
			return err
		}
		off, err := guardsPerOp(kind, true)
		if err != nil {
			return err
		}
		red := 0.0
		if off > 0 {
			red = 100 * (1 - on/off)
		}
		fmt.Fprintf(o.Out, "%-12s %16.1f %16.1f %11.0f%%\n", kind, on, off, red)
	}
	return nil
}

func guardsPerOp(kind ds.Kind, disableElision bool) (float64, error) {
	off, err := ds.LoadSpec(kflex.NewRuntime(), kind, func(s *kflex.Spec) { s.DisableElision = disableElision })
	if err != nil {
		return 0, err
	}
	defer off.Close()
	const n = 256
	before := off.Guards()
	for k := uint64(1); k <= n; k++ {
		if _, err := off.Op(ds.OpUpdate, k, k); err != nil {
			return 0, err
		}
	}
	for k := uint64(1); k <= n; k++ {
		if _, err := off.Op(ds.OpLookup, k, 0); err != nil {
			return 0, err
		}
	}
	return float64(off.Guards()-before) / (2 * n), nil
}

// AblProbe quantifies §3.3's claim that cancellation probes cost almost
// nothing for correct extensions: the same traversal with probes (unbounded
// loop form) vs provably bounded form (no probes).
func AblProbe(o Options) error {
	fmt.Fprintln(o.Out, "Ablation: *terminate probe overhead for correct extensions")
	off, err := ds.LoadSpec(kflex.NewRuntime(), ds.KindLinkedList, nil)
	if err != nil {
		return err
	}
	defer off.Close()
	const n = 4096
	for k := uint64(1); k <= n; k++ {
		off.Update(k, k)
	}
	res, err := off.Op(ds.OpLookup, 1, 0) // deepest traversal
	if err != nil {
		return err
	}
	total := res.Stats.Insns
	probes := res.Stats.Probes
	fmt.Fprintf(o.Out, "full-list lookup: %d instructions, %d probe accesses (%.2f%% of executed work)\n",
		total, probes, 100*float64(probes)/float64(total))
	fmt.Fprintf(o.Out, "modeled overhead: %.1f ns of %.1f ns per op (one L1 load per loop iteration)\n",
		float64(probes)*netsim.InsnNs, netsim.ModelExtNs(total, 3))
	return nil
}

// AblPerfMode quantifies §3.2's performance mode on pointer-chasing
// structures: guard instructions executed with and without it.
func AblPerfMode(o Options) error {
	fmt.Fprintln(o.Out, "Ablation: performance mode (unsanitized reads) on pointer chasing")
	fmt.Fprintf(o.Out, "%-12s %18s %18s\n", "structure", "guards/op (full)", "guards/op (PM)")
	for _, kind := range []ds.Kind{ds.KindLinkedList, ds.KindSkipList, ds.KindHashMap} {
		full, err := perfModeGuards(kind, false)
		if err != nil {
			return err
		}
		pm, err := perfModeGuards(kind, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-12s %18.1f %18.1f\n", kind, full, pm)
	}
	return nil
}

func perfModeGuards(kind ds.Kind, perf bool) (float64, error) {
	rt := kflex.NewRuntime()
	off, err := ds.Load(rt, kind, perf)
	if err != nil {
		return 0, err
	}
	defer off.Close()
	const n = 512
	for k := uint64(1); k <= n; k++ {
		off.Update(k, k)
	}
	before := off.Guards()
	for k := uint64(1); k <= n; k++ {
		off.Lookup(k)
	}
	return float64(off.Guards()-before) / n, nil
}

// AblXlat quantifies §3.4's translate-on-store: instructions per op with
// and without heap sharing on a store-heavy workload.
func AblXlat(o Options) error {
	fmt.Fprintln(o.Out, "Ablation: translate-on-store (shared heaps) on a store-heavy workload")
	for _, shared := range []bool{false, true} {
		off, err := ds.LoadSpec(kflex.NewRuntime(), ds.KindLinkedList, func(s *kflex.Spec) { s.ShareHeap = shared })
		if err != nil {
			return err
		}
		const n = 2048
		before := off.Insns()
		for k := uint64(1); k <= n; k++ {
			if err := off.TryUpdate(k, k); err != nil {
				off.Close()
				return err
			}
		}
		insns := off.Insns() - before
		fmt.Fprintf(o.Out, "shared=%v: %.1f insns/op (%d xlat sites), modeled %.1f ns/op\n",
			shared, float64(insns)/n, off.Ext.Report().XlatStores, netsim.ModelExtNs(insns/n, 3))
		off.Close()
	}
	return nil
}
