// Command kfbench regenerates the paper's evaluation: every table and
// figure of §5 plus the design-choice ablations DESIGN.md calls out. Its
// numbers are model time; wall time on the composed serving path is
// measured by benchmark/ alone.
//
// Usage:
//
//	kfbench -run all            # everything (minutes)
//	kfbench -run fig2 -quick    # one experiment at reduced scale
//	kfbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kflex/internal/bench"
)

func main() {
	run := flag.String("run", "all", "experiment ID (see -list) or 'all'")
	quick := flag.Bool("quick", false, "reduced populations and durations")
	list := flag.Bool("list", false, "list experiment IDs")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Experiments, "\n"))
		return
	}
	opts := bench.Options{Quick: *quick, Out: os.Stdout}
	ids := bench.Experiments
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if err := bench.Run(id, opts); err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
