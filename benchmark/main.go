// Command benchmark is the repository's performance gate: five closed-loop
// workloads on the composed path (supervised, durable, parallel) with
// end-to-end metrics, and a traced run that attributes an op's time to the
// layers from outside. README.md says why each workload and metric exists;
// ../BENCHMARK.json is the contract a driver runs it under:
//
//	go run -C benchmark . --workload mc-read --seed 31 --seconds 10 --trace 0
//
// prints a table and, as the last line, one JSON object with the run's
// metrics. Without --workload it runs all five in turn and writes the
// result set to out/; -compare a.json b.json compares two result sets.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultSet is what a run writes to out/: every workload's result, stamped
// with what produced it.
type resultSet struct {
	Stamp     stamp                 `json:"stamp"`
	Workloads map[string]*runResult `json:"workloads"`
}

type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Trace      bool    `json:"trace"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 31, "workload seed: the same seed gives the same ops")
	seconds := fs.Float64("seconds", runSeconds, "how long each run measures")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics (one workload: instead of, all: after the end-to-end rounds)")
	quick := fs.Bool("quick", false, "1/10 of the ops per pass and 1 s per run: a smoke test, not a measurement")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	outDir := fs.String("out", "out", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	// The reference box has 2 cores; no workload uses more clients than that.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	scale := 1
	if *quick {
		scale, *seconds = 10, 1
	}
	set := resultSet{
		Stamp:     stamp{commit(), runtime.Version(), runtime.NumCPU(), procs, *seed, *seconds, *quick, *trace == 1},
		Workloads: map[string]*runResult{},
	}

	selected := workloads
	single := *name != "all"
	if single {
		def := findWorkload(*name)
		if def == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = []workloadDef{*def}
	}
	for _, def := range selected {
		res := &runResult{Workload: def.Name}
		set.Workloads[def.Name] = res
		if !single || *trace == 0 {
			if err := runEndToEnd(def.new(scale), *seed, *seconds, res); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", def.Name, err)
				return 1
			}
		}
		if *trace == 1 {
			if err := runTraced(def.new(scale), *seed, *seconds, res); err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", def.Name, err)
				return 1
			}
			if err := writeJSON(filepath.Join(*outDir, "trace-"+def.Name+".json"), traceFile{set.Stamp, res, res.spans}, false); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		res.Correct = res.Failed == 0
		printResult(stdout, res)
	}

	file := fmt.Sprintf("results-seed%d.json", *seed)
	if single {
		file = fmt.Sprintf("result-%s-trace%d-seed%d.json", *name, *trace, *seed)
	}
	if err := writeJSON(filepath.Join(*outDir, file), set, true); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if single {
		printContractLine(stdout, set.Workloads[*name], *trace == 1)
	}
	return 0
}

// traceFile is out/trace-<workload>.json: the spans with the layer table
// they were summarised into.
type traceFile struct {
	Stamp  stamp      `json:"stamp"`
	Result *runResult `json:"result"`
	Spans  []span     `json:"spans"`
}

// writeJSON writes v to path; indent for files people read, not for the
// hundreds of thousands of spans of a trace.
func writeJSON(path string, v any, indent bool) error {
	buf, err := json.Marshal(v)
	if indent {
		buf, err = json.MarshalIndent(v, "", " ")
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints every metric by name with its unit, and for the timed
// ones the median, quartiles and count of the samples behind the value.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d rounds=%d ops/pass=%d\n",
		res.Workload, res.Correct, res.Attempted, res.Failed, res.Rounds, res.OpsPerPass)
	for _, d := range append(endToEnd, p99) {
		if s, ok := res.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-9s median %.4f  q1 %.4f  q3 %.4f  n %d\n", d.Name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
	}
	for _, d := range perLayer {
		if s, ok := res.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, s.Value, s.Unit)
		}
	}
	names := make([]string, 0, len(res.SpanSelfNs))
	for name := range res.SpanSelfNs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  span %-29s %14.1f ns self (mean)\n", name, res.SpanSelfNs[name])
	}
}

// contractLine is the driver's result object, printed as the last line.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContractLine(w io.Writer, res *runResult, traced bool) {
	defs, src := endToEnd, res.EndToEnd
	if traced {
		defs, src = perLayer, res.PerLayer
	}
	line := contractLine{res.Correct, res.Attempted, res.Failed, map[string]contractValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{src[d.Name].Value, d.Unit}
	}
	buf, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintln(w, string(buf))
}
