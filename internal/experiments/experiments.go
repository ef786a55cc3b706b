// Package experiments regenerates every table of the reproduction, one
// function per experiment in DESIGN.md's index. Each experiment writes a
// self-describing text table to an io.Writer and returns a machine-
// checkable summary used by the test suite; cmd/experiments drives them
// all and EXPERIMENTS.md records their output against the paper's
// figures.
//
// All randomized experiments are seeded deterministically, so the tables
// are reproducible bit for bit.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// Info describes one experiment.
type Info struct {
	ID    string // e.g. "E-ex1"
	Paper string // what part of the paper it reproduces
	Run   func(w io.Writer) Summary
}

// Summary is the machine-checkable outcome of an experiment run.
type Summary struct {
	// OK reports whether every assertion the experiment makes about the
	// paper's claims held.
	OK bool
	// Checked counts the individual assertions or trials.
	Checked int
	// Violations counts failed assertions (0 when OK).
	Violations int
	// Note is a one-line human summary.
	Note string
}

var registry = map[string]Info{}

func register(info Info) {
	if _, dup := registry[info.ID]; dup {
		panic("experiments: duplicate id " + info.ID)
	}
	registry[info.ID] = info
}

// All returns every experiment, sorted by ID.
func All() []Info {
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Info, bool) {
	info, ok := registry[id]
	return info, ok
}

// RunAll runs the experiments in order and writes what cmd/experiments
// prints: each one's table, then its "[OK] id — note (checks,
// violations, time)" line ([FAIL] when a paper check failed), with a
// blank line between experiments. It returns the number that failed.
func RunAll(w io.Writer, infos []Info) (failures int) {
	for i, info := range infos {
		if i > 0 {
			fmt.Fprintln(w)
		}
		start := time.Now()
		sum := info.Run(w)
		status := "OK"
		if !sum.OK {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(w, "[%s] %s — %s (%d checks, %d violations, %s)\n",
			status, info.ID, sum.Note, sum.Checked, sum.Violations,
			time.Since(start).Round(time.Millisecond))
	}
	return failures
}

// table creates an aligned writer; callers must Flush it.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// header prints the experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
