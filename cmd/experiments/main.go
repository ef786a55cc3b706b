// Command experiments regenerates every table of the reproduction — one
// experiment per table/figure indexed in DESIGN.md — and reports whether
// each table's paper-derived assertions held.
//
// Usage:
//
//	experiments                  # run everything
//	experiments -list            # list experiment IDs
//	experiments -run E-ex1       # run one experiment
//	experiments -bench           # run the bench pipeline, write BENCH_joinopt.json
//
// The process exits nonzero if any experiment's checks fail, so the
// harness can gate CI on the reproduction staying faithful; the bench
// mode emits the schema-versioned performance report CI archives per
// push. cmd/obscheck validates a written report.
package main

import (
	"flag"
	"fmt"
	"os"

	"multijoin/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "", "run a single experiment by ID (default: all)")
	bench := flag.Bool("bench", false, "run the bench pipeline over the fixed corpus")
	benchOut := flag.String("bench-out", "BENCH_joinopt.json", "bench report output file")
	flag.Parse()

	if *list {
		for _, info := range experiments.All() {
			fmt.Printf("%-14s %s\n", info.ID, info.Paper)
		}
		return
	}

	if *bench {
		if err := runBench(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	var selected []experiments.Info
	if *run != "" {
		info, ok := experiments.Lookup(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *run)
			os.Exit(2)
		}
		selected = []experiments.Info{info}
	} else {
		selected = experiments.All()
	}

	if failures := experiments.RunAll(os.Stdout, selected); failures > 0 {
		fmt.Fprintf(os.Stderr, "\n%d experiment(s) failed their paper checks\n", failures)
		os.Exit(1)
	}
}

// runBench executes the bench pipeline, validates the report before
// writing it, and saves it to path.
func runBench(path string) error {
	rep, err := experiments.RunBench(os.Stdout)
	if err != nil {
		return err
	}
	if err := experiments.ValidateBench(rep); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBench(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cases)\n", path, len(rep.Cases))
	return nil
}
