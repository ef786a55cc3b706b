// Command joinlint runs the project's static-analysis suite: eleven
// analyzers that machine-check the engine's own invariants (determinism
// of the cost-model core, stdio discipline, panic-message and
// panic-boundary conventions, JSON schema tagging, allocation
// discipline, span lifecycle, lock ordering, atomic-field hygiene,
// context threading, and the metric-name registry).
//
// Usage:
//
//	joinlint [-list] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module root; the
// module root is found by walking up from the working directory, so
// joinlint runs correctly from any subdirectory. Exit status is 0 when
// the tree is clean, 1 when diagnostics were reported, and 2 on a
// loading failure.
//
// With -json the diagnostics are emitted as a JSON array on stdout —
// one object per finding with analyzer, file, line, column, message and
// suppressed fields. Suppressed findings (waived by //lint:ignore) are
// included in the JSON for auditability but never affect the exit
// status; the human-readable mode omits them entirely.
//
// Diagnostics may be suppressed one site at a time with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above; the reason is
// mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"multijoin/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the machine-readable form of one finding, stable
// for CI artifact consumers.
type jsonDiagnostic struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("joinlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array (suppressed findings included)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: joinlint [-list] [-json] [packages]\n\n"+
			"Runs the project invariant analyzers over the module (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, an := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", an.Name, an.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "joinlint:", err)
		return 2
	}
	root, modulePath, err := analysis.FindModule(wd)
	if err != nil {
		fmt.Fprintln(stderr, "joinlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader(root, modulePath)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "joinlint:", err)
		return 2
	}

	all := analysis.RunAnalyzersAll(loader.Fset, pkgs, analyzers)
	live := 0
	for _, d := range all {
		if !d.Suppressed {
			live++
		}
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(all))
		for _, d := range all {
			out = append(out, jsonDiagnostic{
				Analyzer:   d.Analyzer,
				File:       d.Pos.Filename,
				Line:       d.Pos.Line,
				Column:     d.Pos.Column,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "joinlint:", err)
			return 2
		}
	} else {
		for _, d := range all {
			if !d.Suppressed {
				fmt.Fprintln(stdout, d)
			}
		}
	}
	if live > 0 {
		fmt.Fprintf(stderr, "joinlint: %d problem(s) in %d package(s)\n", live, len(pkgs))
		return 1
	}
	return 0
}
