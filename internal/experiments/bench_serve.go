package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"multijoin/internal/obs"
	"multijoin/internal/paperex"
	"multijoin/internal/serve"
)

// The serve section (bench schema v5): the bench pipeline boots an
// in-process joinserve, drives a deterministic mixed-tenant load
// through the shared load generator, and records the service-level
// outcome counts and latency quantiles, broken down per tenant class,
// plus the server's own latency-histogram series. CI gates on the same
// contract the chaos suite asserts — outcomes partition the run, per
// class and in total, zero protocol violations, shedding and cache hits
// both actually happened, and every request landed in exactly one
// histogram bucket — so a push that breaks admission control, the plan
// cache or the metrics plumbing fails the bench job even if no unit
// test notices.

// ServeBench is the service-level load measurement.
type ServeBench struct {
	// Requests is the number of requests issued.
	Requests int `json:"requests"`
	// Concurrency is the number of load-generator workers.
	Concurrency int `json:"concurrency"`
	// OK, Shed, Refused, Deadline and Failed partition Requests.
	OK int `json:"ok"`
	// Degraded counts OK answers produced below the class's start rung.
	Degraded int `json:"degraded"`
	// CacheHits counts OK answers served from the plan cache.
	CacheHits int `json:"cacheHits"`
	// Shed counts 429 responses (all carried Retry-After, or Failed
	// would be non-zero).
	Shed int `json:"shed"`
	// Refused counts 400/405/503 responses.
	Refused int `json:"refused"`
	// Deadline counts 504 responses.
	Deadline int `json:"deadline"`
	// Failed counts transport errors and protocol violations.
	Failed int `json:"failed"`
	// ShedRate is Shed / Requests.
	ShedRate float64 `json:"shedRate"`
	// CacheHitRate is CacheHits / OK.
	CacheHitRate float64 `json:"cacheHitRate"`
	// LatencyP50NS and LatencyP99NS are request-latency quantiles over
	// the whole run.
	LatencyP50NS int64 `json:"latencyP50Ns"`
	// LatencyP99NS is the 99th-percentile request latency.
	LatencyP99NS int64 `json:"latencyP99Ns"`
	// ShedP50NS and ShedP99NS are quantiles over shed responses only —
	// the "shedding stays fast under overload" number.
	ShedP50NS int64 `json:"shedP50Ns"`
	// ShedP99NS is the 99th-percentile shed latency.
	ShedP99NS int64 `json:"shedP99Ns"`
	// PerTenant breaks the run down by tenant class (schema v5): each
	// class's outcome counts partition its request count, and the
	// classes together account for the whole run.
	PerTenant map[string]*serve.TenantLoadStats `json:"perTenant"`
	// LatencyHist holds the server's serve.request.latency histogram
	// series (one per tenant × endpoint × outcome); summed bucket counts
	// must equal the requests issued — the histogram plumbing observed
	// every request exactly once.
	LatencyHist []obs.HistogramStats `json:"latencyHist"`
}

// serveBenchRequests and serveBenchConcurrency size the load run: small
// enough to keep the bench job fast, oversubscribed enough (16 workers
// against a 1-slot class) that shedding is guaranteed.
const (
	serveBenchRequests    = 300
	serveBenchConcurrency = 16
)

// benchServe boots an in-process server and measures one load run.
// The tenant mix pairs a deliberately tiny class — one slot, no queue,
// so overload and therefore shedding is structural, not timing-luck —
// with a generous class whose repeated shapes exercise the plan cache.
// A chaos slowdown holds slots long enough that the tiny class's
// arrivals pile up at the door.
func benchServe(ctx context.Context, w io.Writer) (*ServeBench, error) {
	rec := obs.NewRecorder()
	srv, err := serve.New(serve.Config{
		Recorder: rec,
		Tenants: []serve.TenantClass{
			{Name: "bench-tiny", Deadline: 2 * time.Second, MaxTuples: 100_000, MaxStates: 100_000,
				MaxConcurrent: 1, MaxQueue: 0, StartRung: serve.RungDP},
			{Name: "bench-wide", Deadline: 5 * time.Second, MaxTuples: 200_000, MaxStates: 200_000,
				MaxConcurrent: 8, MaxQueue: 16, StartRung: serve.RungDP},
		},
		Chaos: serve.ChaosConfig{SlowEvery: 2, SlowBy: 2 * time.Millisecond},
	})
	if err != nil {
		return nil, fmt.Errorf("bench serve: %w", err)
	}

	var cases []serve.LoadCase
	for _, mix := range []struct {
		tenant string
		db     int
	}{
		{"bench-tiny", 5},
		{"bench-wide", 5},
		{"bench-wide", 1},
	} {
		db := paperex.Example5()
		if mix.db == 1 {
			db = paperex.Example1()
		}
		body, err := serve.BuildRequestBodyMode(db, mix.tenant, false, false, "")
		if err != nil {
			return nil, fmt.Errorf("bench serve: %w", err)
		}
		cases = append(cases, serve.LoadCase{Path: "/v1/query", Tenant: mix.tenant, Body: body})
	}

	report, err := serve.RunLoad(ctx, serve.HandlerDoer{Handler: srv.Handler()}, serve.LoadConfig{
		Requests:    serveBenchRequests,
		Concurrency: serveBenchConcurrency,
		Cases:       cases,
	})
	if err != nil {
		return nil, fmt.Errorf("bench serve: %w", err)
	}

	srv.BeginDrain()
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("bench serve: drain: %w", err)
	}

	s := &ServeBench{
		Requests:     report.Requests,
		Concurrency:  serveBenchConcurrency,
		OK:           report.OK,
		Degraded:     report.Degraded,
		CacheHits:    report.CacheHits,
		Shed:         report.Shed,
		Refused:      report.Refused,
		Deadline:     report.Deadline,
		Failed:       report.Failed,
		ShedRate:     report.ShedRate(),
		CacheHitRate: report.CacheHitRate(),
		LatencyP50NS: report.LatencyP50NS,
		LatencyP99NS: report.LatencyP99NS,
		ShedP50NS:    report.ShedP50NS,
		ShedP99NS:    report.ShedP99NS,
		PerTenant:    report.PerTenant,
	}
	for _, h := range rec.Snapshot().Histograms {
		if h.Name == "serve.request.latency" {
			s.LatencyHist = append(s.LatencyHist, h)
		}
	}
	fmt.Fprintf(w, "serve %d req @%d  ok=%d shed=%d (rate %.2f) cacheHit=%.2f p99=%s shedP99=%s failed=%d\n",
		s.Requests, s.Concurrency, s.OK, s.Shed, s.ShedRate, s.CacheHitRate,
		time.Duration(s.LatencyP99NS).Round(time.Microsecond),
		time.Duration(s.ShedP99NS).Round(time.Microsecond), s.Failed)
	if len(report.Violations) > 0 {
		return nil, fmt.Errorf("bench serve: protocol violations under load: %v", report.Violations)
	}
	return s, nil
}

// validateServeBench checks the serve section's contract — the same
// invariants the chaos suite enforces, gated in CI on every push.
func validateServeBench(s *ServeBench) error {
	if s == nil {
		return fmt.Errorf("bench: no serve section")
	}
	if s.Requests <= 0 {
		return fmt.Errorf("bench: serve section measured no requests")
	}
	if sum := s.OK + s.Shed + s.Refused + s.Deadline + s.Failed; sum != s.Requests {
		return fmt.Errorf("bench: serve outcomes sum to %d of %d requests", sum, s.Requests)
	}
	if s.Failed != 0 {
		return fmt.Errorf("bench: %d serve protocol violations", s.Failed)
	}
	if s.Shed == 0 {
		return fmt.Errorf("bench: serve run shed nothing — admission control unexercised")
	}
	if s.OK == 0 {
		return fmt.Errorf("bench: serve run answered nothing")
	}
	if s.CacheHits == 0 {
		return fmt.Errorf("bench: serve run hit the plan cache zero times")
	}
	if s.ShedRate <= 0 || s.CacheHitRate <= 0 {
		return fmt.Errorf("bench: serve rates not derived from the counts (shed %.3f, cache %.3f)",
			s.ShedRate, s.CacheHitRate)
	}
	if s.LatencyP50NS <= 0 || s.LatencyP99NS < s.LatencyP50NS {
		return fmt.Errorf("bench: serve latency quantiles implausible (p50 %d, p99 %d)",
			s.LatencyP50NS, s.LatencyP99NS)
	}
	if s.ShedP50NS <= 0 || s.ShedP99NS < s.ShedP50NS {
		return fmt.Errorf("bench: serve shed quantiles implausible (p50 %d, p99 %d)",
			s.ShedP50NS, s.ShedP99NS)
	}
	if len(s.PerTenant) == 0 {
		return fmt.Errorf("bench: serve section has no per-tenant breakdown")
	}
	tenantTotal := 0
	for name, ts := range s.PerTenant {
		tenantTotal += ts.Requests
		if sum := ts.OK + ts.Shed + ts.Refused + ts.Deadline + ts.Failed; sum != ts.Requests {
			return fmt.Errorf("bench: serve class %s outcomes sum to %d of %d requests",
				name, sum, ts.Requests)
		}
	}
	if tenantTotal != s.Requests {
		return fmt.Errorf("bench: serve per-tenant requests sum to %d of %d", tenantTotal, s.Requests)
	}
	if len(s.LatencyHist) == 0 {
		return fmt.Errorf("bench: serve section has no latency-histogram series")
	}
	var observed int64
	for _, h := range s.LatencyHist {
		if h.Name != "serve.request.latency" {
			return fmt.Errorf("bench: foreign histogram series %q in the serve section", h.Name)
		}
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("bench: histogram series %v has %d counts for %d bounds",
				h.Labels, len(h.Counts), len(h.Bounds))
		}
		var bucketSum int64
		for _, c := range h.Counts {
			if c < 0 {
				return fmt.Errorf("bench: histogram series %v has a negative bucket", h.Labels)
			}
			bucketSum += c
		}
		if bucketSum != h.Count {
			return fmt.Errorf("bench: histogram series %v buckets sum to %d of %d observations",
				h.Labels, bucketSum, h.Count)
		}
		for _, key := range []string{"tenant", "endpoint", "outcome"} {
			if h.Labels[key] == "" {
				return fmt.Errorf("bench: histogram series %v is missing the %q label", h.Labels, key)
			}
		}
		observed += h.Count
	}
	if observed != int64(s.Requests) {
		return fmt.Errorf("bench: latency histograms observed %d of %d requests", observed, s.Requests)
	}
	return nil
}
