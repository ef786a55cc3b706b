package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/paperex"
)

func TestParsePlanMode(t *testing.T) {
	for m := PlanExact; m < planModeCount; m++ {
		got, err := ParsePlanMode(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: %v %v", m, got, err)
		}
	}
	if got, err := ParsePlanMode(""); err != nil || got != PlanExact {
		t.Errorf("empty mode: %v %v, want exact", got, err)
	}
	if _, err := ParsePlanMode("psychic"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestDecodeRejectsUnknownPlanMode(t *testing.T) {
	body, err := BuildRequestBodyMode(paperex.Example1(), "standard", false, false, "psychic")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRequestBytes(body); err == nil || !strings.Contains(err.Error(), "plan mode") {
		t.Fatalf("bad plan mode not rejected: %v", err)
	}
}

// modeBody builds a request body for a paper example with a plan mode.
func modeBody(t *testing.T, db *database.Database, execute, noCache bool, mode string) []byte {
	t.Helper()
	body, err := BuildRequestBodyMode(db, "standard", execute, noCache, mode)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestQueryEstimateModeFastPath: an estimate-mode query answers at the
// estimate rung without degrading (it is a planning choice, not a
// fallback), marks its plan estimated, and — without execution — never
// touches tuple data.
func TestQueryEstimateModeFastPath(t *testing.T) {
	for _, mode := range []string{"estimate", "histogram"} {
		_, doer, rec := newTestServer(t, Config{})
		res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query",
			modeBody(t, paperex.Example5(), false, true, mode))
		if err != nil {
			t.Fatal(err)
		}
		out := decode200(t, res)
		if out.Rung != "estimate" || out.Degraded {
			t.Fatalf("%s: answered at %q degraded=%v, want estimate/false", mode, out.Rung, out.Degraded)
		}
		if !out.Plan.Estimated {
			t.Fatalf("%s: plan not marked estimated", mode)
		}
		if len(out.Trips) != 0 {
			t.Fatalf("%s: fast path recorded trips: %+v", mode, out.Trips)
		}
		if out.ResultSize != nil {
			t.Fatalf("%s: unexecuted plan reported a result size", mode)
		}
		if got := rec.Counter(obs.MetricEvalTuples).Value(); got != 0 {
			t.Fatalf("%s: planning materialized %d tuples", mode, got)
		}
		if rec.Counter(obs.MetricPlanStates).Value() == 0 {
			t.Fatalf("%s: model DP charged no plan.states", mode)
		}
	}
}

// TestQueryEstimateModeExecutesChosenPlan: with execute set, only the
// chosen strategy runs — the response carries its true τ and the final
// result size, while the plan keeps its estimated provenance.
func TestQueryEstimateModeExecutesChosenPlan(t *testing.T) {
	db := paperex.Example1()
	_, doer, _ := newTestServer(t, Config{})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query",
		modeBody(t, db, true, true, "estimate"))
	if err != nil {
		t.Fatal(err)
	}
	out := decode200(t, res)
	if out.Rung != "estimate" || !out.Plan.Estimated {
		t.Fatalf("answered at %q estimated=%v", out.Rung, out.Plan.Estimated)
	}
	if out.ResultSize == nil {
		t.Fatal("executed plan missing result size")
	}
	ev := database.NewEvaluator(paperex.Example1())
	if *out.ResultSize != ev.Size(ev.Database().All()) {
		t.Fatalf("result size %d", *out.ResultSize)
	}
	// The reported cost is the executed plan's measured τ, which can
	// never beat the true optimum.
	best, err := optimizer.Optimize(ev, optimizer.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.Cost < int64(best.Cost) {
		t.Fatalf("impossible: measured cost %d below the optimum %d", out.Plan.Cost, best.Cost)
	}
}

// TestEstimateModeFillsPlanCache: estimate-mode plans are cacheable —
// an estimated plan is a function of the database the key digests — so
// a repeat estimate-mode query hits; an exact query must NOT accept the
// estimated entry, and its exact plan then overwrites it for everyone.
func TestEstimateModeFillsPlanCache(t *testing.T) {
	srv, doer, rec := newTestServer(t, Config{})
	body := func(mode string, noCache bool) []byte {
		return modeBody(t, paperex.Example5(), false, noCache, mode)
	}

	out := decode200(t, mustDo(t, doer, body("estimate", false)))
	if out.CacheHit || srv.CacheLen() != 1 {
		t.Fatalf("first estimate query: hit=%v len=%d", out.CacheHit, srv.CacheLen())
	}

	fp := out.Fingerprint
	out = decode200(t, mustDo(t, doer, body("estimate", false)))
	if !out.CacheHit || !out.Plan.Estimated {
		t.Fatalf("repeat estimate query: hit=%v estimated=%v", out.CacheHit, out.Plan.Estimated)
	}
	if out.Fingerprint != fp {
		t.Fatalf("estimate hit reports fingerprint %q, the miss %q", out.Fingerprint, fp)
	}

	// Exact request: the estimated entry must read as a miss.
	missesBefore := rec.Counter(obs.MetricServeCacheMiss).Value()
	out = decode200(t, mustDo(t, doer, body("", false)))
	if out.CacheHit {
		t.Fatal("exact query served an estimated plan from cache")
	}
	if out.Plan.Estimated {
		t.Fatal("exact query answered with an estimated plan")
	}
	if rec.Counter(obs.MetricServeCacheMiss).Value() == missesBefore {
		t.Fatal("estimated-entry rejection not counted as a miss")
	}

	// The exact plan overwrote the entry; estimate-mode now hits it and
	// gets the strictly better plan.
	out = decode200(t, mustDo(t, doer, body("estimate", false)))
	if !out.CacheHit || out.Plan.Estimated {
		t.Fatalf("estimate query after exact fill: hit=%v estimated=%v", out.CacheHit, out.Plan.Estimated)
	}
	if out.Fingerprint != fp {
		t.Fatalf("hit on the exact fill reports fingerprint %q, the miss %q", out.Fingerprint, fp)
	}
}

// TestAnalyzeIgnoresPlanMode: /v1/analyze always runs the exact
// four-space analysis whatever the body asks.
func TestAnalyzeIgnoresPlanMode(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	out := decode200(t, mustDo(t, doer, modeBody(t, paperex.Example1(), false, true, "estimate"), "/v1/analyze"))
	if out.Rung != "dp" || out.Plan.Estimated {
		t.Fatalf("analyze with planMode: rung %q estimated=%v", out.Rung, out.Plan.Estimated)
	}
	if len(out.Analysis) == 0 {
		t.Fatal("analyze response missing the analysis")
	}
}

// mustDo posts one body, defaulting to /v1/query.
func mustDo(t *testing.T, doer HandlerDoer, body []byte, path ...string) *DoResult {
	t.Helper()
	p := "/v1/query"
	if len(path) > 0 {
		p = path[0]
	}
	res, err := doer.Do(context.Background(), http.MethodPost, p, body)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
