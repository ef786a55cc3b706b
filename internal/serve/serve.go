// Package serve is the engine's multi-tenant service layer: an
// HTTP/JSON API that runs analyze/optimize/execute requests through the
// guard/obs stack with per-tenant admission control, load shedding, a
// degradation ladder, a plan cache keyed by the database's bytes, and
// deterministic fault injection.
//
// The paper's results motivate every piece. Intermediate-result blow-up
// is workload-dependent (τ can be exponential in the worst case), so a
// served engine must treat resource exhaustion as a normal outcome: the
// guard turns it into typed errors, the ladder turns those into cheaper
// answers, and admission control turns sustained overload into fast
// 429s instead of collapse. The theorems say *which* cheaper searches
// are still optimal — the service is where that theory earns its keep.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/maphash"
	"net/http"
	"strconv"
	"sync"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/exitcode"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
)

// Config configures a Server. The zero value serves the default tenant
// classes with a default-sized plan cache and no chaos.
type Config struct {
	// Tenants are the tenant classes; empty selects DefaultTenants.
	Tenants []TenantClass
	// PlanCacheCap bounds the plan cache; 0 selects the default (256).
	PlanCacheCap int
	// Chaos schedules deterministic fault injection; zero disables.
	Chaos ChaosConfig
	// Recorder receives the service metrics; nil records nothing.
	Recorder *obs.Recorder
	// FlightCap bounds the flight-recorder ring; 0 selects the
	// default (64).
	FlightCap int
	// SlowThreshold marks requests slower than this for the flight
	// recorder; 0 selects the default (1s).
	SlowThreshold time.Duration
}

// Server is the service: tenant classes, admission gates, the plan
// cache and the chaos schedule. Create with New, mount Handler.
type Server struct {
	tenants *tenantSet
	adm     *admission
	cache   *planCache
	seed    maphash.Seed // digests request databases into plan-cache keys
	chaos   *chaos
	rec     *obs.Recorder
	flight  *flightRecorder

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup

	cRequests *obs.Counter
	cOK       *obs.Counter
	cFailed   *obs.Counter
	tRequest  *obs.Timer
}

// New validates the configuration and builds a Server.
func New(cfg Config) (*Server, error) {
	ts, err := newTenantSet(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	rec := cfg.Recorder
	return &Server{
		tenants:   ts,
		adm:       newAdmission(ts, rec),
		cache:     newPlanCache(cfg.PlanCacheCap, rec),
		seed:      maphash.MakeSeed(),
		chaos:     newChaos(cfg.Chaos, rec),
		rec:       rec,
		flight:    newFlightRecorder(cfg.FlightCap, cfg.SlowThreshold),
		cRequests: rec.Counter(obs.MetricServeRequests),
		cOK:       rec.Counter(obs.MetricServeOK),
		cFailed:   rec.Counter(obs.MetricServeFailed),
		tRequest:  rec.Timer(obs.MetricServeRequestWall),
	}, nil
}

// Recorder returns the server's recorder (nil when unconfigured).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Tenants lists the configured tenant class names, sorted.
func (s *Server) Tenants() []string {
	out := make([]string, len(s.tenants.names))
	copy(out, s.tenants.names)
	return out
}

// CacheLen reports the number of cached plans.
func (s *Server) CacheLen() int { return s.cache.len() }

// BeginDrain flips the server into draining: /readyz answers 503 so
// load balancers stop routing here, and new API requests are refused
// with 503 while in-flight ones run to completion.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.rec.Counter(obs.MetricServeDrain).Inc()
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain blocks until every in-flight request completes or the context
// dies, whichever is first.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		defer func() {
			// The goroutineguard boundary: a panic here would otherwise
			// kill the process during shutdown.
			if err := guard.Recovered(recover()); err != nil {
				s.rec.Counter(obs.MetricServeDrainPanic).Inc()
			}
			close(done)
		}()
		s.inflight.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler mounts the API:
//
//	GET  /healthz         liveness (always 200 while the process runs)
//	GET  /readyz          readiness (503 once draining)
//	GET  /metrics         Prometheus text exposition of the recorder
//	GET  /debug/requests  flight recorder: recent interesting traces
//	POST /v1/analyze      full four-space analysis with certificates
//	POST /v1/query        plan (and optionally execute) one join query
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/requests", s.handleFlight)
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, true)
	})
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, false)
	})
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleMetrics serves the recorder snapshot as Prometheus text.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "serve: GET only", 0, nil)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WritePrometheus(w)
}

// handleFlight serves the flight recorder's retained request traces.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "serve: GET only", 0, nil)
		return
	}
	writeJSON(w, http.StatusOK, s.flight.snapshot())
}

// handleRun is both API endpoints: decode, admit, descend the ladder,
// answer. analyze selects the full four-space analysis; otherwise the
// request plans (and optionally executes) in the full space only. The
// whole run is traced against a request-scoped recorder whose root span
// opens first; finishRequest owns the epilogue (series, body, flight
// record, headers).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, analyze bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "bad_request", "serve: POST only", 0, nil)
		return
	}
	start := time.Now()
	rt := s.startRequestTrace(r)

	s.inflight.Add(1)
	defer s.inflight.Done()
	if s.Draining() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining", "serve: draining", 1, nil)
		return
	}

	s.cRequests.Inc()
	resp, herr := s.serveRun(r, rt, analyze)
	dur := time.Since(start)
	s.tRequest.Observe(dur)
	s.finishRequest(w, rt, resp, herr, dur)
}

// serveRun runs one traced request end to end: decode, tenant lookup,
// admission, then the plan cache and ladder. It returns the response or
// a classified failure, never writing to the wire itself. The body is
// read into one buffer of its declared Content-Length when that is at
// most MaxRequestBytes; an unknown or larger length is read as
// DecodeRequest reads it.
func (s *Server) serveRun(r *http.Request, rt *requestTrace, analyze bool) (*Response, *httpError) {
	req, db, err := decodeRequest(r.Body, r.ContentLength)
	if err != nil {
		return nil, &httpError{status: http.StatusBadRequest, kind: "bad_request", msg: err.Error()}
	}
	class, ok := s.tenants.lookup(req.Tenant)
	if !ok {
		return nil, &httpError{status: http.StatusBadRequest, kind: "bad_request",
			msg: "serve: unknown tenant class " + strconv.Quote(req.Tenant)}
	}
	rt.class = class.Name
	rt.root.SetAttr("tenant", class.Name)
	s.rec.Counter(obs.MetricTenantRequests(class.Name)).Inc()

	plan := s.chaos.next()
	ctx, cancel := context.WithTimeout(r.Context(), class.Deadline)
	defer cancel()

	asp := rt.rec.StartSpan(obs.SpanAdmission)
	tk, err := s.adm.admit(ctx, class.Name)
	if err != nil {
		asp.Fail(err)
		asp.End()
		if errors.Is(err, ErrShed) {
			secs := int(s.adm.retryAfter(class.Name, time.Now()) / time.Second)
			return nil, &httpError{
				status:     http.StatusTooManyRequests,
				kind:       "shed",
				msg:        "serve: class " + class.Name + " saturated, request shed",
				retryAfter: secs,
			}
		}
		return nil, &httpError{status: http.StatusGatewayTimeout, kind: "deadline", msg: err.Error()}
	}
	asp.End()
	defer tk.release()

	// The request guard carries the deadline only; it exists so
	// concurrent sheds can compute Retry-After from in-flight deadlines.
	tk.setGuard(guard.New(ctx, guard.Limits{}))

	ctx, disarm := s.chaos.armCancel(ctx, plan)
	defer disarm()
	if d := s.chaos.slowDelay(plan); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}

	return s.runRequest(ctx, rt, req, db, class, plan, analyze)
}

// finishRequest is the traced epilogue shared by success and failure.
// Inside the root span it encodes the body, feeds the per-tenant labeled
// series and histograms and the outcome counters, and folds the
// request-scoped recorder into the server's so process totals keep
// reconciling. Then the root span ends, and its completed tree is offered
// to the flight recorder and, on success, spliced into the body as the
// response's last field, "trace". Only writing the bytes is left.
func (s *Server) finishRequest(w http.ResponseWriter, rt *requestTrace,
	resp *Response, herr *httpError, dur time.Duration) {
	var body []byte
	if herr == nil {
		// Trace is still nil, so the body ends where the trace goes.
		resp.Tenant = rt.class
		var err error
		if body, err = json.Marshal(resp); err != nil {
			herr = &httpError{status: http.StatusInternalServerError, kind: "internal",
				msg: "serve: encoding the response: " + err.Error()}
		}
	}
	outcome, status := "ok", http.StatusOK
	if herr != nil {
		outcome, status = herr.kind, herr.status
		rt.root.Fail(errors.New(herr.msg))
		body = errorBody(herr.kind, herr.msg, herr.retryAfter, herr.trips)
	}
	rt.root.SetAttr("outcome", outcome)

	tenant := rt.class
	if tenant == "" {
		tenant = "unknown"
	}
	labels := obs.Labels{"tenant": tenant, "endpoint": rt.endpoint, "outcome": outcome}
	s.rec.LabeledCounter(obs.MetricServeRequestsBy, labels).Inc()
	s.rec.Histogram(obs.MetricServeRequestLatency, obs.DefaultLatencyBucketsNS, labels).
		Observe(dur.Nanoseconds())
	if herr != nil {
		s.cFailed.Inc()
	} else {
		s.rec.Histogram(obs.MetricServeRequestTuples, obs.DefaultTupleBuckets, labels).
			Observe(resp.Guard.Tuples.Spent)
		s.cOK.Inc()
		s.rec.Counter(obs.MetricTenantOK(rt.class)).Inc()
	}
	// Ending a span touches no metric, so the fold loses nothing.
	s.rec.Absorb(rt.rec)
	rt.root.End()

	spans := rt.rec.Spans()
	entry := FlightEntry{
		TraceID:  rt.traceID,
		Endpoint: rt.endpoint,
		Tenant:   rt.class,
		Outcome:  outcome,
		Status:   status,
		DurNS:    dur.Nanoseconds(),
		Spans:    spans,
	}
	if herr != nil {
		entry.Error = herr.msg
	} else {
		entry.Rung = resp.Rung
		entry.Degraded = resp.Degraded
		entry.Tuples = resp.Guard.Tuples.Spent
		entry.States = resp.Guard.States.Spent
		// A TraceInfo always marshals.
		trace, _ := json.Marshal(TraceInfo{
			TraceID:      rt.traceID,
			DroppedSpans: rt.rec.DroppedSpans(),
			Spans:        spans,
		})
		body = append(body[:len(body)-1], `,"trace":`...)
		body = append(body, trace...)
		body = append(body, "}\n"...)
	}
	// Record before the body goes out: a client that has seen the
	// response must already find its trace at /debug/requests (and,
	// folded above, its spend in /metrics).
	if s.flight.interesting(entry) {
		s.flight.record(entry)
	}
	w.Header().Set("Trace-Id", rt.traceID)
	w.Header().Set("Traceparent", rt.traceparentHeader())
	if herr != nil && herr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(herr.retryAfter))
	}
	writeBody(w, status, body)
}

// httpError is a classified request failure.
type httpError struct {
	status int
	kind   string
	msg    string
	trips  []TripInfo
	// retryAfter is the Retry-After hint in whole seconds (shed only).
	retryAfter int
}

// runRequest executes one admitted request: plan cache, then the
// degradation ladder. The evaluator records against the request-scoped
// recorder, so the ladder's spans and the engine's phase events land in
// this request's trace.
func (s *Server) runRequest(ctx context.Context, rt *requestTrace, req *Request,
	db *database.Database, class TenantClass, plan chaosPlan, analyze bool) (*Response, *httpError) {
	key := maphash.Bytes(s.seed, req.Database)
	ev := database.NewEvaluator(db).WithRecorder(rt.rec)
	// Decode already validated the mode; analyze requests always plan
	// exactly, whatever the body says.
	planMode, _ := ParsePlanMode(req.PlanMode)
	if analyze {
		planMode = PlanExact
	}

	if !analyze && !req.NoCache {
		// Exact requests skip estimated entries — they owe the caller a
		// τ-optimal plan. Estimate-mode requests accept any entry for the
		// same database: an exact plan is at least as good as an
		// estimated one.
		if hit, ok := s.cache.get(key, planMode != PlanExact); ok {
			if resp, ok := s.serveFromCache(ctx, rt, req, class, plan, ev, hit); ok {
				return resp, nil
			}
			// Executing the cached plan tripped a budget — fall through
			// to the ladder, which owns degradation.
		}
	}
	fp := core.FingerprintDB(db)

	limits := s.chaos.applyLimits(plan, class.Limits())
	out, err := runLadder(ladderRequest{
		ctx:       ctx,
		db:        db,
		ev:        ev,
		rec:       rt.rec,
		start:     class.StartRung,
		analyze:   analyze,
		planMode:  planMode,
		execute:   analyze || req.Execute,
		limitsFor: func(Rung) guard.Limits { return limits },
	})
	if err != nil {
		if guard.Tripped(err) {
			return nil, &httpError{
				status: http.StatusGatewayTimeout,
				kind:   "deadline",
				msg:    err.Error(),
				trips:  tripInfos(tripsOf(err)),
			}
		}
		if exitcode.IsInput(err) {
			return nil, &httpError{status: http.StatusBadRequest, kind: "bad_request", msg: err.Error()}
		}
		return nil, &httpError{status: http.StatusInternalServerError, kind: "internal", msg: err.Error()}
	}

	resp := s.buildResponse(db, ev, out, fp)
	// Cache fills: the DP's τ-optimal plans, the yannakakis rung's
	// join-tree strategy and estimate-mode plans, each a pure function
	// of the database the key digests. Greedy plans carry no guarantee,
	// and degradation-path estimate answers (exact mode) exist because
	// budgets tripped, not because planning finished: neither is cached.
	fill := out.rung == RungDP || out.rung == RungYannakakis ||
		(planMode != PlanExact && out.rung == RungEstimate)
	if !req.NoCache && fill {
		s.cache.put(key, cachedPlan{
			strategy:    out.strategy,
			rung:        out.rung,
			cost:        out.cost,
			estimated:   out.estimated,
			fingerprint: fp,
		})
	}
	if analyze && out.analysis != nil {
		if raw, err := encodeAnalysis(db, out.analysis); err == nil {
			resp.Analysis = raw
		}
	}
	return resp, nil
}

// serveFromCache answers a query from the plan cache, executing the
// cached plan under a fresh guard when asked to. It reports !ok when
// execution trips, sending the caller to the ladder. The rung span
// mirrors the ladder's shape — a zero-cost cached "optimize" child,
// then "execute" carrying the full guard spend — so the trace invariant
// (answering rung's optimize+execute deltas == response guard spend)
// holds on cache hits too.
func (s *Server) serveFromCache(ctx context.Context, rt *requestTrace, req *Request,
	class TenantClass, plan chaosPlan, ev *database.Evaluator, hit cachedPlan) (*Response, bool) {
	rsp := rt.rec.StartSpan(obs.SpanRung(hit.rung.String()))
	rsp.SetAttr("cached", "true")
	osp := rt.rec.StartSpan(obs.SpanOptimize)
	osp.SetAttr("cached", "true")
	osp.End()

	g := guard.New(ctx, s.chaos.applyLimits(plan, class.Limits()))
	ev.WithGuard(g)
	out := &ladderOutcome{
		rung:      hit.rung,
		strategy:  hit.strategy,
		cost:      hit.cost,
		estimated: hit.estimated,
	}
	esp := rt.rec.StartSpan(obs.SpanExecute)
	if req.Execute {
		err := (ladderRequest{ev: ev, execute: true}).maybeExecute(out)
		snap := g.Snapshot()
		esp.AddDelta(snap.Tuples.Spent, snap.States.Spent, snap.Steps.Spent)
		rsp.AddDelta(snap.Tuples.Spent, snap.States.Spent, snap.Steps.Spent)
		if err != nil {
			esp.Fail(err)
			esp.End()
			rsp.Fail(err)
			rsp.End()
			return nil, false
		}
	} else {
		esp.SetAttr("skipped", "true")
	}
	esp.End()
	out.snapshot = g.Snapshot()
	rsp.End()
	resp := s.buildResponse(ev.Database(), ev, out, hit.fingerprint)
	resp.CacheHit = true
	return resp, true
}

// buildResponse renders a ladder outcome.
func (s *Server) buildResponse(db *database.Database, ev *database.Evaluator,
	out *ladderOutcome, fp core.Fingerprint) *Response {
	resp := &Response{
		Rung:        out.rung.String(),
		Degraded:    out.degraded(),
		Trips:       tripInfos(out.trips),
		Fingerprint: fp.String(),
		Guard:       out.snapshot,
		Plan: PlanInfo{
			Expr:      core.EncodePlanExpr(out.strategy),
			Strategy:  out.strategy.Render(db),
			Cost:      out.cost,
			Estimated: out.estimated,
		},
	}
	if out.executed {
		if out.haveResult {
			// The yannakakis rung materialized R_D itself; reading the
			// size through the evaluator would redo the join as a binary
			// plan, defeating the fast path.
			size := out.resultSize
			resp.ResultSize = &size
		} else {
			// The final join is memoized by the execution that just ran, so
			// this lookup costs nothing and charges nothing.
			size := ev.Size(db.All())
			resp.ResultSize = &size
		}
	}
	return resp
}

// tripInfos renders ladder trips for the wire.
func tripInfos(trips []trip) []TripInfo {
	if len(trips) == 0 {
		return nil
	}
	out := make([]TripInfo, len(trips))
	for i, t := range trips {
		out[i] = TripInfo{Rung: t.rung.String(), Error: t.err.Error()}
	}
	return out
}

// tripsOf recovers the ladder's trip list from a total-failure error.
func tripsOf(err error) []trip {
	var le *ladderError
	if errors.As(err, &le) {
		return le.trips
	}
	return nil
}

// encodeAnalysis renders the analysis in the CLI's JSON shape.
func encodeAnalysis(db *database.Database, an *core.Analysis) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := core.EncodeAnalysisJSON(&buf, db, an); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

// writeBody writes an encoded JSON body with status.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON writes v as a compact JSON body and a newline with status.
// Its callers pass maps of plain values and the flight document, which
// always marshal.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := json.Marshal(v)
	writeBody(w, status, append(body, '\n'))
}

// writeError writes the standard error body.
func writeError(w http.ResponseWriter, status int, kind, msg string, retryAfter int, trips []TripInfo) {
	writeBody(w, status, errorBody(kind, msg, retryAfter, trips))
}

// errorBody encodes the standard error body; an ErrorInfo, all strings
// and ints, always marshals.
func errorBody(kind, msg string, retryAfter int, trips []TripInfo) []byte {
	body, _ := json.Marshal(ErrorInfo{
		Error:             msg,
		Kind:              kind,
		RetryAfterSeconds: retryAfter,
		Trips:             trips,
	})
	return append(body, '\n')
}
