package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multijoin/internal/obs"
	"multijoin/internal/paperex"
)

// checkTraceInvariant asserts the tentpole contract on one response:
// the trace is present and well-formed (valid ID, ≥4 spans, every span
// parented into the tree) and the answering rung's optimize+execute
// span deltas sum exactly to the response's guard spend.
func checkTraceInvariant(t *testing.T, out *Response) {
	t.Helper()
	if out.Trace == nil {
		t.Fatal("response has no trace")
	}
	if !isLowerHex(out.Trace.TraceID, 32) {
		t.Fatalf("trace ID %q not 32 hex digits", out.Trace.TraceID)
	}
	if out.Trace.DroppedSpans != 0 {
		t.Errorf("trace dropped %d spans", out.Trace.DroppedSpans)
	}
	spans := out.Trace.Spans
	if len(spans) < 4 {
		t.Fatalf("trace has %d spans, want ≥ 4: %+v", len(spans), spans)
	}
	byID := map[int64]obs.SpanRecord{}
	names := map[string]bool{}
	var root obs.SpanRecord
	for _, sp := range spans {
		byID[sp.ID] = sp
		names[sp.Name] = true
		if sp.Name == "request" {
			root = sp
		}
	}
	for _, want := range []string{"request", "admission", "optimize", "execute"} {
		if !names[want] {
			t.Errorf("trace missing %q span; have %v", want, names)
		}
	}
	if root.Parent != 0 {
		t.Errorf("request span has parent %d, want root", root.Parent)
	}
	for _, sp := range spans {
		if sp.ID == root.ID {
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Errorf("span %q has dangling parent %d", sp.Name, sp.Parent)
		}
	}

	// The answering rung is the last span named for the response's rung.
	var rung obs.SpanRecord
	for _, sp := range spans {
		if sp.Name == "rung:"+out.Rung {
			rung = sp
		}
	}
	if rung.ID == 0 {
		t.Fatalf("no span for answering rung %q: %+v", out.Rung, spans)
	}
	var tuples, states int64
	var haveOpt, haveExec bool
	for _, sp := range spans {
		if sp.Parent != rung.ID {
			continue
		}
		switch sp.Name {
		case "optimize":
			haveOpt = true
			tuples, states = tuples+sp.Tuples, states+sp.States
		case "execute":
			haveExec = true
			tuples, states = tuples+sp.Tuples, states+sp.States
		}
	}
	if !haveOpt || !haveExec {
		t.Fatalf("answering rung lacks optimize/execute children: %+v", spans)
	}
	if tuples != out.Guard.Tuples.Spent || states != out.Guard.States.Spent {
		t.Errorf("span deltas tuples=%d states=%d do not reconcile with guard spend %d/%d",
			tuples, states, out.Guard.Tuples.Spent, out.Guard.States.Spent)
	}
	// The rung span itself carries the rung's total spend.
	if rung.Tuples != out.Guard.Tuples.Spent || rung.States != out.Guard.States.Spent {
		t.Errorf("rung span deltas %d/%d ≠ guard spend %d/%d",
			rung.Tuples, rung.States, out.Guard.Tuples.Spent, out.Guard.States.Spent)
	}
}

// TestTraceSpansReconcileWithGuard is the tentpole table test: every
// request shape answers with a span tree whose answering-rung deltas
// reconcile exactly with the response's guard snapshot.
func TestTraceSpansReconcileWithGuard(t *testing.T) {
	for name, tc := range map[string]struct {
		path     string
		tenant   string
		execute  bool
		chaos    ChaosConfig
		wantRung string
		degraded bool
	}{
		"query executed":  {path: "/v1/query", tenant: "standard", execute: true, wantRung: "dp"},
		"query plan only": {path: "/v1/query", tenant: "standard", wantRung: "dp"},
		"analyze":         {path: "/v1/analyze", tenant: "premium", wantRung: "dp"},
		"degraded to estimate": {path: "/v1/query", tenant: "standard",
			chaos: ChaosConfig{FaultEvery: 1, FaultStep: 1}, wantRung: "estimate", degraded: true},
	} {
		t.Run(name, func(t *testing.T) {
			_, doer, _ := newTestServer(t, Config{Chaos: tc.chaos})
			res, err := doer.Do(context.Background(), http.MethodPost, tc.path, mustBody(t, tc.tenant, tc.execute, true))
			if err != nil {
				t.Fatal(err)
			}
			out := decode200(t, res)
			if out.Rung != tc.wantRung || out.Degraded != tc.degraded {
				t.Fatalf("rung=%q degraded=%v, want %q/%v",
					out.Rung, out.Degraded, tc.wantRung, tc.degraded)
			}
			checkTraceInvariant(t, out)
			if tc.execute && out.Guard.Tuples.Spent == 0 {
				t.Error("executed request spent no tuples — delta attribution untestable")
			}
		})
	}
}

// TestTraceOnCacheHit pins the invariant on the cache-hit path, whose
// rung span the ladder records as it does a miss's.
func TestTraceOnCacheHit(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	body := mustBody(t, "standard", true, false)
	res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	first := decode200(t, res)
	checkTraceInvariant(t, first)

	res, _ = doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	second := decode200(t, res)
	if !second.CacheHit {
		t.Fatal("repeat query missed the cache")
	}
	checkTraceInvariant(t, second)
	if second.Trace.TraceID == first.Trace.TraceID {
		t.Error("two requests share a trace ID")
	}
	if second.Guard.Tuples.Spent == 0 {
		t.Error("executed cache hit spent no tuples")
	}
}

func TestTraceparentPropagation(t *testing.T) {
	srv, _, _ := newTestServer(t, Config{})
	h := srv.Handler()
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"

	do := func(traceparent string) (*http.Response, *Response) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/query",
			bytes.NewReader(mustBody(t, "standard", false, false)))
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		res := w.Result()
		var out Response
		if res.StatusCode == http.StatusOK {
			if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		res.Body.Close()
		return res, &out
	}

	// A valid traceparent is adopted: same trace ID in the header, the
	// outgoing traceparent, and the response body.
	res, out := do("00-" + tid + "-00f067aa0ba902b7-01")
	if got := res.Header.Get("Trace-Id"); got != tid {
		t.Errorf("Trace-Id = %q, want the caller's %q", got, tid)
	}
	if gotTid, ok := parseTraceparent(res.Header.Get("Traceparent")); !ok || gotTid != tid {
		t.Errorf("outgoing traceparent %q does not carry the caller's trace",
			res.Header.Get("Traceparent"))
	}
	if out.Trace == nil || out.Trace.TraceID != tid {
		t.Errorf("body trace ID does not match the caller's")
	}

	// Malformed values are ignored and a fresh valid ID is minted.
	for _, bad := range []string{
		"",
		"garbage",
		"01-" + tid + "-00f067aa0ba902b7-01", // unknown version
		"00-" + strings.ToUpper(tid) + "-00f067aa0ba902b7-01",    // uppercase hex
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01", // all-zero trace
		"00-" + tid + "-" + strings.Repeat("0", 16) + "-01",      // all-zero parent
		"00-" + tid[:30] + "-00f067aa0ba902b7-01",                // short trace ID
	} {
		res, _ := do(bad)
		got := res.Header.Get("Trace-Id")
		if !isLowerHex(got, 32) || got == tid {
			t.Errorf("traceparent %q: Trace-Id %q, want a fresh valid ID", bad, got)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "standard", true, false))
	if err != nil {
		t.Fatal(err)
	}
	decode200(t, res)

	res, err = doer.Do(context.Background(), http.MethodGet, "/metrics", nil)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("GET /metrics: %v status %d", err, res.Status)
	}
	if err := obs.CheckPrometheus(bytes.NewReader(res.Body)); err != nil {
		t.Fatalf("/metrics not valid Prometheus text: %v\n%s", err, res.Body)
	}
	text := string(res.Body)
	for _, want := range []string{
		"# TYPE serve_request_latency histogram",
		`serve_request_latency_bucket{endpoint="/v1/query",outcome="ok",tenant="standard",le="+Inf"} 1`,
		`serve_requests_by{endpoint="/v1/query",outcome="ok",tenant="standard"} 1`,
		"serve_requests 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	if res, _ := doer.Do(context.Background(), http.MethodPost, "/metrics", nil); res.Status != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want 405", res.Status)
	}
}

// TestAbsorbKeepsProcessTotals pins the epilogue fold: engine counters
// recorded against the request-scoped recorder land in the server's
// root recorder once the request finishes.
func TestAbsorbKeepsProcessTotals(t *testing.T) {
	_, doer, rec := newTestServer(t, Config{})
	body, err := BuildRequestBodyMode(paperex.Example1(), "standard", true, true, "")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	decode200(t, res)
	if rec.Counter("dp.states").Value() == 0 {
		t.Error("dp.states not folded into the root recorder")
	}
	if rec.Counter("eval.tuples").Value() == 0 {
		t.Error("eval.tuples not folded into the root recorder")
	}
	// Request-scoped spans stay with the request.
	if got := len(rec.Spans()); got != 0 {
		t.Errorf("root recorder absorbed %d spans", got)
	}
}
