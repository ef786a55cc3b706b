// Command obscheck validates the machine-readable observability
// artifacts the engine emits: metrics snapshots (joinopt -metrics-out),
// structured traces (joinopt -trace-out), bench reports (experiments
// -bench, BENCH_joinopt.json) and flight-recorder documents (joinserve
// GET /debug/requests). Each argument is sniffed by schema and must
// decode cleanly with no unknown fields; bench reports must also pass
// the bench validator, which makes obscheck CI's gate on a written
// bench report. With -prom the arguments are Prometheus text
// exposition (joinserve GET /metrics) instead of JSON, checked for
// well-formed families and sorted, type-consistent sample lines. CI
// runs it to keep the service's wire contracts honest.
//
// With -planning the bench reports' planning sections are additionally
// rendered as a human-readable regret table on stdout — CI uploads it
// as the regret artifact next to the raw JSON. With -acyclic the
// reports' Yannakakis fast-path sections are rendered the same way.
//
// Usage:
//
//	obscheck FILE...
//	obscheck -planning BENCH_FILE...
//	obscheck -acyclic BENCH_FILE...
//	obscheck -prom METRICS_FILE...
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"multijoin/internal/exitcode"
	"multijoin/internal/experiments"
	"multijoin/internal/obs"
	"multijoin/internal/serve"
)

func main() {
	fs := flag.NewFlagSet("obscheck", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	prom := fs.Bool("prom", false, "treat the files as Prometheus text exposition instead of JSON")
	planning := fs.Bool("planning", false, "after validating, print each bench report's planning regret table")
	acyclic := fs.Bool("acyclic", false, "after validating, print each bench report's acyclic fast-path table")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-prom|-planning|-acyclic] FILE...")
		os.Exit(2)
	}
	failed := false
	for _, path := range fs.Args() {
		check := checkFile
		if *prom {
			check = checkProm
		} else if *planning {
			check = checkPlanning
		} else if *acyclic {
			check = checkAcyclic
		}
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok\n", path)
	}
	if failed {
		// An artifact failing its schema is malformed input to this
		// tool, so it exits 3, distinct from usage (2) and crashes (1).
		os.Exit(exitcode.BadInput)
	}
}

// checkFile sniffs the document's schema field and validates it with the
// matching strict decoder.
func checkFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("not a JSON document: %w", err)
	}
	switch head.Schema {
	case obs.MetricsSchema:
		_, err = obs.DecodeMetrics(bytes.NewReader(data))
	case obs.TraceSchema:
		_, err = obs.DecodeTrace(bytes.NewReader(data))
	case serve.FlightSchema:
		_, err = serve.DecodeFlight(bytes.NewReader(data))
	case obs.BenchSchema:
		var rep *experiments.BenchReport
		rep, err = experiments.DecodeBench(bytes.NewReader(data))
		if err == nil {
			err = experiments.ValidateBench(rep)
		}
	default:
		return fmt.Errorf("unknown schema %q", head.Schema)
	}
	return err
}

// checkPlanning validates a bench report and prints its planning
// section as the CI regret artifact.
func checkPlanning(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := experiments.DecodeBench(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := experiments.ValidateBench(rep); err != nil {
		return err
	}
	experiments.WritePlanningTable(os.Stdout, rep.Planning)
	return nil
}

// checkAcyclic validates a bench report and prints its acyclic
// fast-path section as the CI separation artifact.
func checkAcyclic(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := experiments.DecodeBench(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := experiments.ValidateBench(rep); err != nil {
		return err
	}
	experiments.WriteAcyclicTable(os.Stdout, rep.Acyclic)
	return nil
}

// checkProm validates one Prometheus text exposition file.
func checkProm(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cerr := obs.CheckPrometheus(f)
	if err := f.Close(); cerr == nil {
		cerr = err
	}
	return cerr
}
