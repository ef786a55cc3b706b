package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// newTestServer builds a server with a recorder and generous default
// tenants unless overridden.
func newTestServer(t *testing.T, cfg Config) (*Server, HandlerDoer, *obs.Recorder) {
	t.Helper()
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, HandlerDoer{Handler: srv.Handler()}, cfg.Recorder
}

// mustBody builds a request body for a paper example.
func mustBody(t *testing.T, tenant string, execute, noCache bool) []byte {
	t.Helper()
	body, err := BuildRequestBodyMode(paperex.Example1(), tenant, execute, noCache, "")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// buildRequestBodyIndented is BuildRequestBodyMode as it was before
// database.MarshalJSON: the indented interchange encoding, compacted
// again by json.Marshal.
func buildRequestBodyIndented(db *database.Database, tenant string, execute, noCache bool, planMode string) ([]byte, error) {
	var dbJSON bytes.Buffer
	if err := database.EncodeJSON(&dbJSON, db); err != nil {
		return nil, err
	}
	return json.Marshal(Request{Tenant: tenant, Database: json.RawMessage(dbJSON.Bytes()),
		Execute: execute, NoCache: noCache, PlanMode: planMode})
}

// TestRequestBodyBytesUnchanged: the plan cache keys on a body's bytes,
// so BuildRequestBodyMode must build the bytes it built before, values
// that encoding/json escapes included.
func TestRequestBodyBytesUnchanged(t *testing.T) {
	odd := relation.FromRows(`R"<1>"`, relation.NewSchema("<A>", "Ä&B"),
		[]relation.Value{`say "hi"`, `back\slash`},
		[]relation.Value{"<script>&amp;", "tab\tnew\nline"},
		[]relation.Value{"é∑😀", "\u2028sep\u2029 \xff"})
	dbs := []*database.Database{paperex.Example1(), paperex.Example5(),
		database.New(odd, relation.New("empty", relation.NewSchema("Z")))}
	for i, db := range dbs {
		for _, mode := range []string{"", "estimate"} {
			got, err := BuildRequestBodyMode(db, "premium", i%2 == 0, i == 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := buildRequestBodyIndented(db, "premium", i%2 == 0, i == 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("database %d mode %q: body\n%s\nwant\n%s", i, mode, got, want)
			}
		}
	}
}

// decode200 parses a 200 response, failing the test otherwise.
func decode200(t *testing.T, res *DoResult) *Response {
	t.Helper()
	if res.Status != http.StatusOK {
		t.Fatalf("status %d: %s", res.Status, res.Body)
	}
	var out Response
	if err := json.Unmarshal(res.Body, &out); err != nil {
		t.Fatalf("unparseable body: %v\n%s", err, res.Body)
	}
	return &out
}

func TestHealthAndReadiness(t *testing.T) {
	srv, doer, _ := newTestServer(t, Config{})
	res, err := doer.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("healthz: %v status %d", err, res.Status)
	}
	res, _ = doer.Do(context.Background(), http.MethodGet, "/readyz", nil)
	if res.Status != http.StatusOK {
		t.Fatalf("readyz before drain: status %d", res.Status)
	}

	srv.BeginDrain()
	res, _ = doer.Do(context.Background(), http.MethodGet, "/readyz", nil)
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: status %d, want 503", res.Status)
	}
	// API requests are refused while draining, with a Retry-After.
	res, _ = doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "standard", false, false))
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", res.Status)
	}
	if res.RetryAfter == "" {
		t.Fatal("draining refusal missing Retry-After")
	}
	// healthz stays 200 — the process is alive, just not taking work.
	res, _ = doer.Do(context.Background(), http.MethodGet, "/healthz", nil)
	if res.Status != http.StatusOK {
		t.Fatalf("healthz during drain: status %d", res.Status)
	}
}

func TestQueryHappyPath(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "standard", true, false))
	if err != nil {
		t.Fatal(err)
	}
	out := decode200(t, res)
	if out.Tenant != "standard" {
		t.Errorf("tenant = %q", out.Tenant)
	}
	if out.Rung != "dp" {
		t.Errorf("rung = %q, want dp (standard starts at the DP)", out.Rung)
	}
	if out.Degraded || len(out.Trips) != 0 {
		t.Errorf("unexpected degradation: %+v", out)
	}
	if out.Plan.Cost <= 0 || out.Plan.Estimated {
		t.Errorf("want a positive measured cost: %+v", out.Plan)
	}
	if out.ResultSize == nil {
		t.Error("executed query missing resultSize")
	}
	if out.Plan.Expr == "" || !strings.Contains(out.Plan.Strategy, "R") {
		t.Errorf("plan not rendered: %+v", out.Plan)
	}
}

func TestAnalyzeReturnsCertificates(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/analyze", mustBody(t, "premium", false, false))
	if err != nil {
		t.Fatal(err)
	}
	out := decode200(t, res)
	if out.Rung != "dp" {
		t.Errorf("analyze rung = %q, want dp", out.Rung)
	}
	if len(out.Analysis) == 0 {
		t.Fatal("analyze response missing analysis section")
	}
	var an struct {
		Conditions []json.RawMessage `json:"conditions"`
		Optima     []struct {
			Space string `json:"space"`
			Tau   int    `json:"tau"`
		} `json:"optima"`
	}
	if err := json.Unmarshal(out.Analysis, &an); err != nil {
		t.Fatalf("analysis not in the CLI JSON shape: %v", err)
	}
	if len(an.Optima) != 4 || len(an.Conditions) == 0 {
		t.Errorf("analysis incomplete: %+v", an)
	}
}

func TestBadRequests(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		method, path string
		body         string
		wantStatus   int
	}{
		"get on api":     {http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed},
		"empty body":     {http.MethodPost, "/v1/query", "", http.StatusBadRequest},
		"not json":       {http.MethodPost, "/v1/query", "not json", http.StatusBadRequest},
		"unknown field":  {http.MethodPost, "/v1/query", `{"databose":{}}`, http.StatusBadRequest},
		"no database":    {http.MethodPost, "/v1/query", `{"tenant":"free"}`, http.StatusBadRequest},
		"empty database": {http.MethodPost, "/v1/query", `{"database":{"relations":[]}}`, http.StatusBadRequest},
		"unknown tenant": {http.MethodPost, "/v1/analyze", `{"tenant":"vip","database":{"relations":[{"name":"R","attrs":["A"],"rows":[]}]}}`, http.StatusBadRequest},
		"trailing data":  {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A"],"rows":[]}]}} extra`, http.StatusBadRequest},
		"malformed rows": {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A"],"rows":[["a","b"]]}]}}`, http.StatusBadRequest},
		// Accepted by the encoding/json envelope decoder: its trailing-data
		// check stopped at ']' and '}', and it merged repeated keys.
		"trailing bracket": {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A"],"rows":[]}]}}]`, http.StatusBadRequest},
		"trailing brace":   {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A"],"rows":[]}]}} }`, http.StatusBadRequest},
		"repeated key":     {http.MethodPost, "/v1/query", `{"tenant":"free","tenant":"premium","database":{"relations":[{"name":"R","attrs":["A"],"rows":[]}]}}`, http.StatusBadRequest},
		"repeated db key":  {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A","B"],"rows":[["1","2"]]}],"relations":[{"attrs":["A","C"]}]}}`, http.StatusBadRequest},
		"null row value":   {http.MethodPost, "/v1/query", `{"database":{"relations":[{"name":"R","attrs":["A","B"],"rows":[[null,"2"],["","2"]]}]}}`, http.StatusBadRequest},
	} {
		res, err := doer.Do(context.Background(), tc.method, tc.path, []byte(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != tc.wantStatus {
			t.Errorf("%s: status %d, want %d\n%s", name, res.Status, tc.wantStatus, res.Body)
		}
		var ei ErrorInfo
		if err := json.Unmarshal(res.Body, &ei); err != nil || ei.Error == "" || ei.Kind == "" {
			t.Errorf("%s: error body not typed: %v %s", name, err, res.Body)
		}
	}
	// A body past MaxRequestBytes is refused alike whether its length is
	// declared or unknown.
	big := bytes.Repeat([]byte{' '}, MaxRequestBytes+1)
	for name, length := range map[string]int64{"oversize, length declared": int64(len(big)), "oversize, length unknown": -1} {
		w := postQuery(doer.Handler, big, length)
		var ei ErrorInfo
		if err := json.Unmarshal(w.Body.Bytes(), &ei); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, w.Body)
		}
		if w.Code != http.StatusBadRequest || ei.Kind != "bad_request" ||
			!strings.Contains(ei.Error, "request body exceeds 8388608 bytes") {
			t.Errorf("%s: status %d, body %s; want 400 bad_request, body too large", name, w.Code, w.Body)
		}
	}
}

// postQuery sends body to /v1/query with the given declared
// Content-Length (-1: unknown) and returns the recorded response.
func postQuery(h http.Handler, body []byte, length int64) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	req.ContentLength = length
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestDeclaredLengthKeepsTheAnswer: the handler reads a body of declared
// length into one buffer and one of unknown length as it comes; the
// answer is the same either way. Only the trace and the guard's
// wall-clock deadline differ between two requests.
func TestDeclaredLengthKeepsTheAnswer(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	body := mustBody(t, "standard", true, true)
	var answers [2]Response
	for k, length := range []int64{int64(len(body)), -1} {
		w := postQuery(doer.Handler, body, length)
		if w.Code != http.StatusOK {
			t.Fatalf("length %d: status %d: %s", length, w.Code, w.Body)
		}
		if err := json.Unmarshal(w.Body.Bytes(), &answers[k]); err != nil {
			t.Fatal(err)
		}
		answers[k].Trace, answers[k].Guard.Deadline = nil, time.Time{}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Errorf("declared length answered %+v, unknown length %+v", answers[0], answers[1])
	}
}

func TestPlanCacheHitKeepsDPFlat(t *testing.T) {
	srv, doer, rec := newTestServer(t, Config{})
	body := mustBody(t, "standard", false, false)

	res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	first := decode200(t, res)
	if first.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
	if srv.CacheLen() != 1 {
		t.Fatalf("cache len = %d after first dp answer", srv.CacheLen())
	}
	statesAfterFirst := rec.Counter("dp.states").Value()
	if statesAfterFirst == 0 {
		t.Fatal("first request examined no DP states — metric wiring broken")
	}

	res, _ = doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	second := decode200(t, res)
	if !second.CacheHit {
		t.Fatalf("repeat query missed the cache: %+v", second)
	}
	if second.Rung != first.Rung || second.Plan.Expr != first.Plan.Expr {
		t.Errorf("cache hit changed the answer: %+v vs %+v", second, first)
	}
	if got := rec.Counter("dp.states").Value(); got != statesAfterFirst {
		t.Errorf("cache hit ran the DP: dp.states %d → %d", statesAfterFirst, got)
	}
	if rec.Counter("serve.cache.hit").Value() != 1 {
		t.Errorf("serve.cache.hit = %d, want 1", rec.Counter("serve.cache.hit").Value())
	}
	// The hit reports the fingerprint stored with the plan, which must
	// be the database's own.
	if want := core.FingerprintDB(paperex.Example1()).String(); first.Fingerprint != want || second.Fingerprint != want {
		t.Errorf("fingerprints %q (miss) and %q (hit), want %q", first.Fingerprint, second.Fingerprint, want)
	}
}

func TestNoCacheBypassesThePlanCache(t *testing.T) {
	srv, doer, rec := newTestServer(t, Config{})
	body := mustBody(t, "standard", false, true)
	for i := 0; i < 2; i++ {
		res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
		if out := decode200(t, res); out.CacheHit {
			t.Fatal("noCache request served from cache")
		}
	}
	if srv.CacheLen() != 0 {
		t.Errorf("noCache filled the cache: len %d", srv.CacheLen())
	}
	if rec.Counter("serve.cache.hit").Value() != 0 {
		t.Error("noCache hit the cache")
	}
}

func TestCacheInvalidatedByDataChange(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "standard", false, false))
	first := decode200(t, res)

	// A different database (another example) must miss: its fingerprint
	// differs in both shape and stats.
	body2, err := BuildRequestBodyMode(paperex.Example5(), "standard", false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	res, _ = doer.Do(context.Background(), http.MethodPost, "/v1/query", body2)
	second := decode200(t, res)
	if second.CacheHit {
		t.Fatal("different database hit the first database's plan")
	}
	if second.Fingerprint == first.Fingerprint {
		t.Fatal("different databases share a fingerprint")
	}
}

// TestPlanCacheKeepsDatabasesApart: R2 differs between the two
// databases while every cardinality and distinct count agrees, so their
// statistics fingerprints are equal, yet their optimal plans differ.
// Each answer, planned or executed, must carry its own plan's τ and its
// own database's optimum.
func TestPlanCacheKeepsDatabasesApart(t *testing.T) {
	rel := func(name, attrs string, rows ...[2]relation.Value) *relation.Relation {
		r := relation.New(name, relation.SchemaFromString(attrs))
		for _, row := range rows {
			r.InsertRow(row[:])
		}
		return r
	}
	same := [][2]relation.Value{{"1", "1"}, {"2", "2"}}
	db1 := database.New(rel("R1", "AB", same...), rel("R2", "BC", same...), rel("R3", "CD", same...))
	db2 := database.New(rel("R1", "AB", same...), rel("R2", "BC", [2]relation.Value{"1", "1"}, [2]relation.Value{"3", "2"}),
		rel("R3", "CD", same...))
	if core.FingerprintDB(db1) != core.FingerprintDB(db2) {
		t.Fatal("the two databases' statistics fingerprints differ; the test needs them equal")
	}
	for _, execute := range []bool{false, true} {
		_, doer, _ := newTestServer(t, Config{})
		for i, db := range []*database.Database{db1, db2} {
			body, err := BuildRequestBodyMode(db, "standard", execute, false, "")
			if err != nil {
				t.Fatal(err)
			}
			res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
			out := decode200(t, res)
			plan, err := core.Plan{Expr: out.Plan.Expr}.Strategy(db)
			if err != nil {
				t.Fatal(err)
			}
			tau := plan.Cost(database.NewEvaluator(db))
			opt, err := optimizer.Optimize(database.NewEvaluator(db), optimizer.SpaceAll)
			if err != nil {
				t.Fatal(err)
			}
			if out.Plan.Cost != int64(tau) || tau != opt.Cost {
				t.Errorf("execute=%v, database %d: rung %s plan %s cost %d (cache hit %v); its τ is %d, the optimum %d",
					execute, i+1, out.Rung, out.Plan.Expr, out.Plan.Cost, out.CacheHit, tau, opt.Cost)
			}
		}
	}
}

func TestDeadlineRequestGetsTypedError(t *testing.T) {
	// A 1ns deadline dies before admission completes; the response must
	// be a typed 504, not a hang or a 500.
	_, doer, _ := newTestServer(t, Config{Tenants: []TenantClass{{
		Name:          "instant",
		Deadline:      time.Nanosecond,
		MaxConcurrent: 1,
		MaxQueue:      1,
		StartRung:     RungDP,
	}}})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "instant", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504\n%s", res.Status, res.Body)
	}
	var ei ErrorInfo
	if err := json.Unmarshal(res.Body, &ei); err != nil || ei.Kind != "deadline" {
		t.Fatalf("want kind=deadline: %v %s", err, res.Body)
	}
}

func TestDefaultTenantIsStandard(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	body, err := BuildRequestBodyMode(paperex.Example1(), "", false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
	if out := decode200(t, res); out.Tenant != "standard" {
		t.Errorf("empty tenant resolved to %q, want standard", out.Tenant)
	}
}

func TestTenantConfigValidation(t *testing.T) {
	for name, classes := range map[string][]TenantClass{
		"empty name":   {{Deadline: time.Second, MaxConcurrent: 1}},
		"no deadline":  {{Name: "x", MaxConcurrent: 1}},
		"no slots":     {{Name: "x", Deadline: time.Second}},
		"bad rung":     {{Name: "x", Deadline: time.Second, MaxConcurrent: 1, StartRung: Rung(99)}},
		"exhaustive":   {{Name: "x", Deadline: time.Second, MaxConcurrent: 1, StartRung: RungExhaustive}},
		"duplicate":    {{Name: "x", Deadline: time.Second, MaxConcurrent: 1}, {Name: "x", Deadline: time.Second, MaxConcurrent: 1}},
		"negative que": {{Name: "x", Deadline: time.Second, MaxConcurrent: 1, MaxQueue: -1}},
	} {
		if _, err := New(Config{Tenants: classes}); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestPremiumAnswersAtDP pins premium's ladder: it starts at the DP, so
// an executed query answers at rung dp, undegraded, and its cost is the
// τ that exhaustive enumeration of the (2n−3)!! strategies finds.
func TestPremiumAnswersAtDP(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Cycle, gen.Clique} {
		for n := 5; n <= 7; n++ {
			name := fmt.Sprintf("%v%d", shape, n)
			db := gen.Uniform(rng, gen.Schemes(shape, n), 12, 6)
			body, err := BuildRequestBodyMode(db, "premium", true, true, "")
			if err != nil {
				t.Fatal(err)
			}
			res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", body)
			if err != nil {
				t.Fatal(err)
			}
			out := decode200(t, res)
			if out.Rung != "dp" || out.Degraded {
				t.Errorf("%s: answered at %q (degraded %v), want dp", name, out.Rung, out.Degraded)
			}
			want, err := optimizer.Exhaustive(database.NewEvaluator(db))
			if err != nil {
				t.Fatal(err)
			}
			if out.Plan.Cost != int64(want.Cost) {
				t.Errorf("%s: plan.cost %d, want the exhaustive optimum %d", name, out.Plan.Cost, want.Cost)
			}
		}
	}
}

// TestBodiesAreCompactJSON: every body the API writes is json.Marshal of
// its decoded value plus a newline. For a success body that also pins
// the trace section, spliced in after the rest is encoded, to the last
// field of Response.
func TestBodiesAreCompactJSON(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{SlowThreshold: time.Nanosecond})
	check := func(name string, body []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, body)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(body, want) {
			t.Errorf("%s: body is not its value's compact encoding\n got %s\nwant %s", name, body, want)
		}
	}
	for _, path := range []string{"/v1/query", "/v1/analyze"} {
		res, err := doer.Do(context.Background(), http.MethodPost, path, mustBody(t, "standard", true, true))
		if err != nil {
			t.Fatal(err)
		}
		out := decode200(t, res)
		if out.Trace == nil || len(out.Trace.Spans) == 0 {
			t.Fatalf("%s: no trace in the body", path)
		}
		check(path, res.Body, &Response{})
	}
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", []byte(`{"tenant":"vip"}`))
	if err != nil {
		t.Fatal(err)
	}
	check("error", res.Body, &ErrorInfo{})
	res, err = doer.Do(context.Background(), http.MethodGet, "/debug/requests", nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc FlightDoc
	check("/debug/requests", res.Body, &doc)
	if len(doc.Entries) == 0 {
		t.Error("the flight document recorded no request")
	}
}
