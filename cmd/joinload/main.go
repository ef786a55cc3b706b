// Command joinload drives a joinserve instance with a mixed-tenant
// workload and checks the service protocol as it goes: every 200 must
// parse as a response, every 429 must carry a usable Retry-After, and
// the outcome counts must partition the requests issued. The aggregate
// report — outcome counts, shed rate, cache hit rate, latency and
// shed-latency quantiles — is written to stdout as JSON, and a
// per-tenant-class latency/outcome breakdown goes to stderr at exit.
//
// Usage:
//
//	joinload -url http://127.0.0.1:8080 -requests 2000 -concurrency 64
//	joinload -url http://127.0.0.1:8080 -tenants free,standard,premium -execute
//	joinload -url http://127.0.0.1:8080 -examples 1,3,5 -analyze-every 4
//
// Exit codes: 0 = protocol clean, 1 = internal failure, 2 = usage,
// 3 = malformed input, 4 = protocol violations observed under load.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"multijoin/internal/database"
	"multijoin/internal/exitcode"
	"multijoin/internal/paperex"
	"multijoin/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("joinload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of the joinserve instance")
	requests := fs.Int("requests", 1000, "total requests to issue")
	concurrency := fs.Int("concurrency", 32, "concurrent workers")
	tenants := fs.String("tenants", "free,standard,premium", "comma-separated tenant classes to mix")
	examples := fs.String("examples", "1,3,5", "comma-separated paper examples (1-5) to query")
	execute := fs.Bool("execute", false, "ask the server to execute the chosen plans")
	noCache := fs.Bool("no-cache", false, "bypass the plan cache on every request")
	analyzeEvery := fs.Int("analyze-every", 0, "make every Nth case a /v1/analyze call (0 = query only)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request client timeout")
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}

	cases, err := buildCases(*tenants, *examples, *execute, *noCache, *analyzeEvery)
	if err != nil {
		fmt.Fprintf(stderr, "joinload: %v\n", err)
		return exitcode.Classify(err)
	}

	doer := serve.ClientDoer{
		Client:  &http.Client{Timeout: *timeout},
		BaseURL: strings.TrimRight(*url, "/"),
	}
	report, err := serve.RunLoad(context.Background(), doer, serve.LoadConfig{
		Requests:    *requests,
		Concurrency: *concurrency,
		Cases:       cases,
	})
	if err != nil {
		fmt.Fprintf(stderr, "joinload: %v\n", err)
		return exitcode.Classify(err)
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(stderr, "joinload: %v\n", err)
		return exitcode.Internal
	}
	printTenantBreakdown(stderr, report)
	if report.Failed > 0 {
		fmt.Fprintf(stderr, "joinload: %d protocol violations (see violations in the report)\n", report.Failed)
		return exitcode.Budget
	}
	return exitcode.OK
}

// printTenantBreakdown writes the per-tenant-class latency and outcome
// breakdown to stderr — human-readable operator output, kept off stdout
// so the JSON report stays machine-parseable.
func printTenantBreakdown(stderr *os.File, report *serve.LoadReport) {
	if len(report.PerTenant) == 0 {
		return
	}
	names := make([]string, 0, len(report.PerTenant))
	for name := range report.PerTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(stderr, "joinload: per-tenant breakdown:")
	for _, name := range names {
		ts := report.PerTenant[name]
		fmt.Fprintf(stderr,
			"  %-10s requests=%d ok=%d degraded=%d shed=%d refused=%d deadline=%d failed=%d p50=%v p99=%v\n",
			name, ts.Requests, ts.OK, ts.Degraded, ts.Shed, ts.Refused, ts.Deadline, ts.Failed,
			time.Duration(ts.LatencyP50NS), time.Duration(ts.LatencyP99NS))
	}
}

// buildCases expands the tenant × example cross product into the
// request mix.
func buildCases(tenantList, exampleList string, execute, noCache bool, analyzeEvery int) ([]serve.LoadCase, error) {
	var dbs []*database.Database
	for _, tok := range strings.Split(exampleList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, exitcode.Input(fmt.Errorf("bad example number %q: %w", tok, err))
		}
		db, err := exampleDB(n)
		if err != nil {
			return nil, err
		}
		dbs = append(dbs, db)
	}
	var cases []serve.LoadCase
	i := 0
	for _, tenant := range strings.Split(tenantList, ",") {
		tenant = strings.TrimSpace(tenant)
		for _, db := range dbs {
			body, err := serve.BuildRequestBodyMode(db, tenant, execute, noCache, "")
			if err != nil {
				return nil, err
			}
			path := "/v1/query"
			i++
			if analyzeEvery > 0 && i%analyzeEvery == 0 {
				path = "/v1/analyze"
			}
			cases = append(cases, serve.LoadCase{Path: path, Tenant: tenant, Body: body})
		}
	}
	if len(cases) == 0 {
		return nil, exitcode.Input(fmt.Errorf("no cases: need at least one tenant and one example"))
	}
	return cases, nil
}

// exampleDB returns the paper example by number.
func exampleDB(n int) (*database.Database, error) {
	switch n {
	case 1:
		return paperex.Example1(), nil
	case 2:
		return paperex.Example2(), nil
	case 3:
		return paperex.Example3(), nil
	case 4:
		return paperex.Example4(), nil
	case 5:
		return paperex.Example5(), nil
	}
	return nil, exitcode.Input(fmt.Errorf("example %d out of range [1,5]", n))
}
