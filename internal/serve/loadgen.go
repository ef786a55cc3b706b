package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"multijoin/internal/database"
	"multijoin/internal/guard"
)

// The load generator. One engine drives three consumers — cmd/joinload
// over a real socket, the chaos test suite directly against the
// handler, and the bench pipeline's serve section — so the acceptance
// checks ("every shed carries Retry-After", "every request is answered
// or typed") are asserted by the same code everywhere.

// Doer issues one request; implementations differ only in transport.
// The context bounds the single request — it is attached to the
// outgoing http.Request, so server-side deadline propagation and
// load-run cancellation both flow through it.
type Doer interface {
	Do(ctx context.Context, method, path string, body []byte) (*DoResult, error)
}

// DoResult is one response, reduced to what the load generator checks.
type DoResult struct {
	Status     int
	RetryAfter string
	Body       []byte
}

// HandlerDoer drives an http.Handler in-process — no sockets, so the
// chaos suite can push thousands of concurrent requests under -race
// without ephemeral-port limits.
type HandlerDoer struct {
	Handler http.Handler
}

// Do issues one in-process request.
func (d HandlerDoer) Do(ctx context.Context, method, path string, body []byte) (*DoResult, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	d.Handler.ServeHTTP(w, req)
	res := w.Result()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	return &DoResult{Status: res.StatusCode, RetryAfter: res.Header.Get("Retry-After"), Body: b}, nil
}

// ClientDoer drives a live server over HTTP — cmd/joinload's transport.
type ClientDoer struct {
	Client  *http.Client
	BaseURL string
}

// Do issues one HTTP request.
func (d ClientDoer) Do(ctx context.Context, method, path string, body []byte) (*DoResult, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := d.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	return &DoResult{Status: res.StatusCode, RetryAfter: res.Header.Get("Retry-After"), Body: b}, nil
}

// BuildRequestBodyMode encodes a ready-to-send request body for the
// given database under a plan mode ("" or "exact" for exact planning,
// "estimate"/"histogram" for the statistics-driven fast path) — the
// helper cmd/joinload, the chaos suite and the bench pipeline all build
// their mixes with.
func BuildRequestBodyMode(db *database.Database, tenant string, execute, noCache bool, planMode string) ([]byte, error) {
	var dbJSON bytes.Buffer
	if err := database.EncodeJSON(&dbJSON, db); err != nil {
		return nil, err
	}
	return json.Marshal(Request{
		Tenant:   tenant,
		Database: json.RawMessage(dbJSON.Bytes()),
		Execute:  execute,
		NoCache:  noCache,
		PlanMode: planMode,
	})
}

// LoadCase is one request template in the mix; the generator cycles
// through the cases round-robin.
type LoadCase struct {
	// Path is the endpoint ("/v1/query" or "/v1/analyze").
	Path string
	// Tenant names the case's tenant class for the per-tenant
	// breakdown; empty buckets under "unknown".
	Tenant string
	// Body is the JSON request body.
	Body []byte
}

// LoadConfig drives one load run.
type LoadConfig struct {
	// Requests is the total number of requests to issue.
	Requests int
	// Concurrency is the number of worker goroutines.
	Concurrency int
	// Cases is the request mix, cycled round-robin; must be non-empty.
	Cases []LoadCase
}

// LoadReport aggregates a load run. Outcomes partition Requests: every
// request is exactly one of OK, Shed, Refused (draining/malformed),
// Deadline or Failed.
type LoadReport struct {
	// Requests is the number issued.
	Requests int `json:"requests"`
	// OK counts 200 responses.
	OK int `json:"ok"`
	// Degraded counts 200 responses answered below the start rung.
	Degraded int `json:"degraded"`
	// CacheHits counts 200 responses served from the plan cache.
	CacheHits int `json:"cacheHits"`
	// Shed counts 429 responses.
	Shed int `json:"shed"`
	// Refused counts 400/405/503 responses.
	Refused int `json:"refused"`
	// Deadline counts 504 responses.
	Deadline int `json:"deadline"`
	// Failed counts transport errors, unexpected statuses, unparseable
	// bodies, and protocol violations (a shed without Retry-After).
	Failed int `json:"failed"`
	// Violations samples the first few failure descriptions.
	Violations []string `json:"violations,omitempty"`
	// LatencyP50NS and LatencyP99NS are request-latency quantiles over
	// all requests, in nanoseconds.
	LatencyP50NS int64 `json:"latencyP50Ns"`
	// LatencyP99NS is the 99th-percentile request latency.
	LatencyP99NS int64 `json:"latencyP99Ns"`
	// ShedP50NS and ShedP99NS are latency quantiles over shed (429)
	// responses only — the "shedding stays fast" acceptance number.
	ShedP50NS int64 `json:"shedP50Ns"`
	// ShedP99NS is the 99th-percentile shed latency.
	ShedP99NS int64 `json:"shedP99Ns"`
	// PerTenant breaks the run down by tenant class, keyed by
	// LoadCase.Tenant.
	PerTenant map[string]*TenantLoadStats `json:"perTenant,omitempty"`
}

// TenantLoadStats is one tenant class's slice of a load run.
type TenantLoadStats struct {
	// Requests is the number issued for this class.
	Requests int `json:"requests"`
	// OK counts 200 responses.
	OK int `json:"ok"`
	// Degraded counts 200 responses answered below the start rung.
	Degraded int `json:"degraded"`
	// Shed counts 429 responses.
	Shed int `json:"shed"`
	// Refused counts 400/405/503 responses.
	Refused int `json:"refused"`
	// Deadline counts 504 responses.
	Deadline int `json:"deadline"`
	// Failed counts transport errors and protocol violations.
	Failed int `json:"failed"`
	// LatencyP50NS and LatencyP99NS are this class's latency quantiles.
	LatencyP50NS int64 `json:"latencyP50Ns"`
	// LatencyP99NS is the class's 99th-percentile latency.
	LatencyP99NS int64 `json:"latencyP99Ns"`
}

// maxViolationSamples bounds the failure descriptions kept verbatim.
const maxViolationSamples = 8

// ShedRate is the fraction of requests shed.
func (r *LoadReport) ShedRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Requests)
}

// CacheHitRate is the fraction of OK responses served from the cache.
func (r *LoadReport) CacheHitRate() float64 {
	if r.OK == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.OK)
}

// RunLoad issues cfg.Requests requests through the Doer from
// cfg.Concurrency workers and aggregates the outcomes. The context is
// threaded into every request; cancelling it stops the workers after
// their in-flight request, and the report then covers the requests
// actually issued (the outcome partition holds over that count).
func RunLoad(ctx context.Context, d Doer, cfg LoadConfig) (*LoadReport, error) {
	if ctx == nil {
		return nil, fmt.Errorf("serve: load run needs a non-nil context")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serve: load run needs a positive request count")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if len(cfg.Cases) == 0 {
		return nil, fmt.Errorf("serve: load run needs at least one case")
	}

	var next atomic.Int64
	results := make([]workerTally, cfg.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		tally := &results[w]
		go func() {
			defer func() {
				if err := guard.Recovered(recover()); err != nil {
					tally.fail("worker panic: " + err.Error())
				}
				wg.Done()
			}()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests {
					return
				}
				c := cfg.Cases[i%len(cfg.Cases)]
				tally.issued++
				start := time.Now()
				res, err := d.Do(ctx, http.MethodPost, c.Path, c.Body)
				tally.observe(c.Tenant, res, err, time.Since(start))
			}
		}()
	}
	wg.Wait()

	report := &LoadReport{}
	var all, shed []time.Duration
	tenantLat := map[string][]time.Duration{}
	for i := range results {
		t := &results[i]
		report.Requests += t.issued
		report.OK += t.ok
		report.Degraded += t.degraded
		report.CacheHits += t.cacheHits
		report.Shed += t.shed
		report.Refused += t.refused
		report.Deadline += t.deadline
		report.Failed += t.failed
		for _, v := range t.violations {
			if len(report.Violations) < maxViolationSamples {
				report.Violations = append(report.Violations, v)
			}
		}
		all = append(all, t.latencies...)
		shed = append(shed, t.shedLatencies...)
		for name, tt := range t.perTenant {
			if report.PerTenant == nil {
				report.PerTenant = map[string]*TenantLoadStats{}
			}
			ts := report.PerTenant[name]
			if ts == nil {
				ts = &TenantLoadStats{}
				report.PerTenant[name] = ts
			}
			ts.Requests += tt.requests
			ts.OK += tt.ok
			ts.Degraded += tt.degraded
			ts.Shed += tt.shed
			ts.Refused += tt.refused
			ts.Deadline += tt.deadline
			ts.Failed += tt.failed
			tenantLat[name] = append(tenantLat[name], tt.latencies...)
		}
	}
	report.LatencyP50NS = quantileNS(all, 0.50)
	report.LatencyP99NS = quantileNS(all, 0.99)
	report.ShedP50NS = quantileNS(shed, 0.50)
	report.ShedP99NS = quantileNS(shed, 0.99)
	for name, lat := range tenantLat {
		report.PerTenant[name].LatencyP50NS = quantileNS(lat, 0.50)
		report.PerTenant[name].LatencyP99NS = quantileNS(lat, 0.99)
	}
	return report, nil
}

// workerTally is one worker's private aggregation; workers never share
// state while running, so the hot path takes no locks.
type workerTally struct {
	issued                   int
	ok, degraded, cacheHits  int
	shed, refused, deadline  int
	failed                   int
	violations               []string
	latencies, shedLatencies []time.Duration
	perTenant                map[string]*tenantTally
}

// tenantTally is one worker's per-tenant-class slice of the run.
type tenantTally struct {
	requests, ok, degraded          int
	shed, refused, deadline, failed int
	latencies                       []time.Duration
}

func (t *workerTally) fail(msg string) {
	t.failed++
	if len(t.violations) < maxViolationSamples {
		t.violations = append(t.violations, msg)
	}
}

// tenant returns the worker's bucket for the class, creating it on
// first use.
func (t *workerTally) tenant(name string) *tenantTally {
	if name == "" {
		name = "unknown"
	}
	if t.perTenant == nil {
		t.perTenant = map[string]*tenantTally{}
	}
	tt := t.perTenant[name]
	if tt == nil {
		tt = &tenantTally{}
		t.perTenant[name] = tt
	}
	return tt
}

// observe classifies one response against the service protocol.
func (t *workerTally) observe(tenant string, res *DoResult, err error, took time.Duration) {
	t.latencies = append(t.latencies, took)
	tt := t.tenant(tenant)
	tt.requests++
	tt.latencies = append(tt.latencies, took)
	if err != nil {
		t.fail("transport: " + err.Error())
		tt.failed++
		return
	}
	switch res.Status {
	case http.StatusOK:
		var body Response
		if jerr := json.Unmarshal(res.Body, &body); jerr != nil {
			t.fail("unparseable 200 body: " + jerr.Error())
			tt.failed++
			return
		}
		t.ok++
		tt.ok++
		if body.Degraded {
			t.degraded++
			tt.degraded++
		}
		if body.CacheHit {
			t.cacheHits++
		}
	case http.StatusTooManyRequests:
		t.shed++
		tt.shed++
		t.shedLatencies = append(t.shedLatencies, took)
		if secs, aerr := parseRetryAfter(res.RetryAfter); aerr != nil || secs < 1 {
			t.fail("shed without usable Retry-After: " + res.RetryAfter)
			tt.failed++
		}
	case http.StatusBadRequest, http.StatusMethodNotAllowed, http.StatusServiceUnavailable:
		t.refused++
		tt.refused++
	case http.StatusGatewayTimeout:
		t.deadline++
		tt.deadline++
	default:
		t.fail(fmt.Sprintf("unexpected status %d", res.Status))
		tt.failed++
	}
}

// parseRetryAfter parses the delay-seconds form of the header.
func parseRetryAfter(v string) (int, error) {
	var secs int
	if _, err := fmt.Sscanf(v, "%d", &secs); err != nil {
		return 0, err
	}
	return secs, nil
}

// quantileNS returns the q-quantile of the samples in nanoseconds
// (nearest-rank), 0 when empty.
func quantileNS(samples []time.Duration, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(q * float64(len(samples)-1))
	return samples[idx].Nanoseconds()
}
