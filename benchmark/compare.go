package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(buf, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictWithin     = "within-bound"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares b against its base a under the metric's bound. A change
// inside the bound is only called within-bound when both sides' quartile
// spreads are inside it too; otherwise the runs cannot tell an unchanged
// metric from a regressed one, and the verdict is unresolved.
func judge(d metricDef, a, b summary) string {
	// worse: how much worse b's value is, as a share of a's (negative: better).
	worse := (b.Value - a.Value) / a.Value
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return verdictWorse
	case worse < -d.Bound:
		return verdictBetter
	case a.spread() > d.Bound || b.spread() > d.Bound:
		return verdictUnresolved
	}
	return verdictWithin
}

// compareFiles prints one row per (workload, end-to-end metric) present in
// both sets and returns 1 if any row is worse, or any workload of b failed
// ops that a did not.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "base a = %s (commit %s, seed %d)\n     b = %s (commit %s, seed %d)\n",
		pathA, a.Stamp.Commit, a.Stamp.Seed, pathB, b.Stamp.Commit, b.Stamp.Seed)
	fmt.Fprintf(stdout, "%-10s %-10s %14s %22s %14s %22s %9s %6s  %s\n",
		"workload", "metric", "a value", "a q1..q3", "b value", "b q1..q3", "b/a", "bound", "verdict")
	worse := false
	for _, def := range workloads {
		ra, rb := a.Workloads[def.Name], b.Workloads[def.Name]
		if ra == nil || rb == nil {
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(stdout, "%-10s failed ops rose from %d to %d: %s\n", def.Name, ra.Failed, rb.Failed, verdictWorse)
			worse = true
		}
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(d, sa, sb)
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(stdout, "%-10s %-10s %14.4f %22s %14.4f %22s %9.4f %5.0f%%  %s\n",
				def.Name, d.Name, sa.Value, fmt.Sprintf("%.4f..%.4f", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("%.4f..%.4f", sb.Q1, sb.Q3), sb.Value/sa.Value, 100*d.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}
