// Command joinserve serves the engine as a multi-tenant HTTP/JSON API.
//
//	POST /v1/analyze  full condition/certificate analysis + optima
//	POST /v1/query    plan (and optionally execute) one join query
//	GET  /healthz     liveness
//	GET  /readyz      readiness (503 once draining)
//
// Every request runs under a guard derived from its tenant class (free,
// standard, premium by default): a wall-clock deadline, tuple and state
// budgets, a bounded concurrency slot. When a class saturates, requests
// are shed with 429 and a Retry-After computed from in-flight
// deadlines. When a budget trips mid-request, the degradation ladder
// (dp → yannakakis → greedy → estimate) retries one rung down and the
// response says which rung answered. Repeat queries against unchanged
// data are answered from a plan cache keyed by hypergraph shape +
// statistics fingerprint.
//
// Usage:
//
//	joinserve -addr :8080
//	joinserve -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0
//	joinserve -addr :8080 -chaos-fault-every 7 -chaos-slow-every 5 -chaos-slow-by 50ms
//	joinserve -addr :8080 -flight-cap 256 -slow-threshold 250ms
//
// On SIGINT/SIGTERM the server flips /readyz to 503, waits -drain-grace
// for load balancers to notice, then finishes in-flight requests and
// exits; -metrics-out writes the final metrics snapshot on the way out.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"multijoin/internal/obs"
	"multijoin/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("joinserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	debugAddr := fs.String("debug-addr", "", "optional expvar/pprof debug listen address")
	cacheCap := fs.Int("cache-cap", 0, "plan cache capacity (0 = default 256)")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "wait after flipping readiness before refusing work")
	metricsOut := fs.String("metrics-out", "", "write the final metrics snapshot JSON here on shutdown")
	faultEvery := fs.Int64("chaos-fault-every", 0, "inject a fault into every Nth request (0 = off)")
	faultStep := fs.Int64("chaos-fault-step", 1, "join step at which injected faults fire")
	slowEvery := fs.Int64("chaos-slow-every", 0, "slow every Nth request (0 = off)")
	slowBy := fs.Duration("chaos-slow-by", 50*time.Millisecond, "delay injected into slowed requests")
	cancelEvery := fs.Int64("chaos-cancel-every", 0, "cancel every Nth request mid-execution (0 = off)")
	cancelAfter := fs.Duration("chaos-cancel-after", 10*time.Millisecond, "how far into a cancelled request the cancellation fires")
	flightCap := fs.Int("flight-cap", 0, "flight recorder ring capacity (0 = default 64)")
	slowThreshold := fs.Duration("slow-threshold", 0, "latency above which a request is retained in the flight ring (0 = default 1s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	rec := obs.NewRecorder()
	srv, err := serve.New(serve.Config{
		PlanCacheCap:  *cacheCap,
		Recorder:      rec,
		FlightCap:     *flightCap,
		SlowThreshold: *slowThreshold,
		Chaos: serve.ChaosConfig{
			FaultEvery:  *faultEvery,
			FaultStep:   *faultStep,
			SlowEvery:   *slowEvery,
			SlowBy:      *slowBy,
			CancelEvery: *cancelEvery,
			CancelAfter: *cancelAfter,
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "joinserve: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "joinserve: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	if *debugAddr != "" {
		if _, dAddr, derr := obs.DebugServer(*debugAddr, rec); derr != nil {
			fmt.Fprintf(stderr, "joinserve: debug server: %v\n", derr)
			return 1
		} else {
			fmt.Fprintf(stdout, "joinserve: debug listening on %s\n", dAddr)
		}
	}

	// The smoke script greps this line for the bound address, so port 0
	// works in CI.
	fmt.Fprintf(stdout, "joinserve: listening on %s (tenants: %v)\n", ln.Addr(), srv.Tenants())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		fmt.Fprintf(stderr, "joinserve: %v\n", err)
		return 1
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "joinserve: %v, draining\n", sig)
	}

	// Drain protocol: readiness flips first, then a grace period lets
	// load balancers stop routing here, then in-flight requests finish.
	srv.BeginDrain()
	time.Sleep(*drainGrace)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "joinserve: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "joinserve: shutdown: %v\n", err)
	}

	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintf(stderr, "joinserve: %v\n", err)
			return 1
		}
		werr := rec.WriteMetrics(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "joinserve: writing metrics: %v\n", werr)
			return 1
		}
	}
	fmt.Fprintln(stdout, "joinserve: drained, exiting")
	return 0
}
