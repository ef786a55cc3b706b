package serve

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/paperex"
)

func TestChaosScheduleIsDeterministic(t *testing.T) {
	cfg := ChaosConfig{FaultEvery: 3, SlowEvery: 4, SlowBy: time.Millisecond, CancelEvery: 5, CancelAfter: time.Millisecond}
	a, b := newChaos(cfg, nil), newChaos(cfg, nil)
	for i := 0; i < 100; i++ {
		pa, pb := a.next(), b.next()
		if pa != pb {
			t.Fatalf("schedules diverge at request %d: %+v vs %+v", i+1, pa, pb)
		}
		if pa.fault != ((i+1)%3 == 0) || pa.slow != ((i+1)%4 == 0) || pa.cancel != ((i+1)%5 == 0) {
			t.Fatalf("request %d misscheduled: %+v", i+1, pa)
		}
	}
}

func TestChaosZeroConfigInjectsNothing(t *testing.T) {
	c := newChaos(ChaosConfig{}, nil)
	for i := 0; i < 10; i++ {
		if p := c.next(); p != (chaosPlan{}) {
			t.Fatalf("zero config injected %+v", p)
		}
	}
	lim := guard.Limits{MaxTuples: 5}
	if got := c.applyLimits(chaosPlan{}, lim); got != lim {
		t.Errorf("limits changed without a fault: %+v", got)
	}
}

func TestChaosFaultUsesGuardInjection(t *testing.T) {
	c := newChaos(ChaosConfig{FaultEvery: 1, FaultStep: 2}, nil)
	lim := c.applyLimits(chaosPlan{fault: true}, guard.Limits{MaxTuples: 5})
	if lim.FaultStep != 2 || lim.FaultErr != guard.ErrFaultInjected {
		t.Fatalf("fault not stamped into limits: %+v", lim)
	}
	if lim.MaxTuples != 5 {
		t.Error("fault stamping lost the tenant budgets")
	}
}

// TestChaosFaultedRequestDegradesOrDies: a request whose every join
// step faults must still be answered — by the estimate rung, which
// executes nothing — and report the injected faults as trips.
func TestChaosFaultedRequestDegradesOrDies(t *testing.T) {
	_, doer, _ := newTestServer(t, Config{
		Chaos: ChaosConfig{FaultEvery: 1, FaultStep: 1}, // every request faults at the first join
	})
	res, err := doer.Do(context.Background(), http.MethodPost, "/v1/query", mustBody(t, "standard", false, false))
	if err != nil {
		t.Fatal(err)
	}
	out := decode200(t, res)
	if out.Rung != "estimate" || !out.Degraded {
		t.Fatalf("faulted request answered at %q degraded=%v, want estimate/true", out.Rung, out.Degraded)
	}
	for _, tr := range out.Trips {
		if tr.Error == "" {
			t.Errorf("trip without a typed error: %+v", tr)
		}
	}
}

// TestChaosSuite is the acceptance run: ≥1000 concurrent mixed-tenant
// requests against a saturated server with fault, slowdown and
// cancellation injection, under -race in CI. No panics, no goroutine
// leaks, every shed carries Retry-After, every request gets a typed
// outcome, and shedding stays fast while the engine is saturated.
func TestChaosSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is the long way round")
	}
	before := runtime.NumGoroutine()

	rec := obs.NewRecorder()
	srv, doer, _ := newTestServer(t, Config{
		Recorder: rec,
		// Big enough that nothing interesting is ever evicted — the suite
		// asserts the flight recorder captured every shed and degraded
		// request with zero drops unaccounted.
		FlightCap: 8192,
		Tenants: []TenantClass{
			// A deliberately tiny class so saturation — and therefore
			// shedding — is guaranteed at this concurrency.
			{Name: "burst", Deadline: 300 * time.Millisecond, MaxTuples: 50_000, MaxStates: 50_000,
				MaxConcurrent: 2, MaxQueue: 2, StartRung: RungDP},
			{Name: "standard", Deadline: 2 * time.Second, MaxTuples: 200_000, MaxStates: 200_000,
				MaxConcurrent: 8, MaxQueue: 16, StartRung: RungDP},
			{Name: "free", Deadline: 500 * time.Millisecond, MaxTuples: 20_000, MaxStates: 20_000,
				MaxConcurrent: 4, MaxQueue: 8, StartRung: RungGreedy},
		},
		Chaos: ChaosConfig{
			FaultEvery:  7,
			FaultStep:   1,
			SlowEvery:   5,
			SlowBy:      2 * time.Millisecond,
			CancelEvery: 11,
			CancelAfter: time.Millisecond,
		},
	})

	var cases []LoadCase
	for _, tenant := range []string{"burst", "standard", "free"} {
		for _, db := range []*database.Database{paperex.Example1(), paperex.Example5()} {
			body, err := BuildRequestBodyMode(db, tenant, tenant == "standard", false, "")
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, LoadCase{Path: "/v1/query", Tenant: tenant, Body: body})
		}
	}
	cases = append(cases, LoadCase{Path: "/v1/analyze", Tenant: "standard", Body: mustBody(t, "standard", false, false)})
	// Estimate-driven planning traffic rides the same chaos schedule: the
	// fast path to the estimate rung must stay green under faults, slowdowns
	// and cancellations, executed or not.
	for _, mode := range []string{"estimate", "histogram"} {
		body, err := BuildRequestBodyMode(paperex.Example5(), "free", false, false, mode)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, LoadCase{Path: "/v1/query", Tenant: "free", Body: body})
	}
	execBody, err := BuildRequestBodyMode(paperex.Example1(), "standard", true, false, "estimate")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, LoadCase{Path: "/v1/query", Tenant: "standard", Body: execBody})

	report, err := RunLoad(context.Background(), doer, LoadConfig{
		Requests:    3000,
		Concurrency: 1000,
		Cases:       cases,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: ok=%d degraded=%d cacheHits=%d shed=%d refused=%d deadline=%d failed=%d shedP99=%v",
		report.OK, report.Degraded, report.CacheHits, report.Shed, report.Refused,
		report.Deadline, report.Failed, time.Duration(report.ShedP99NS))

	// Zero panics, zero protocol violations: every failure mode above is
	// typed, and loadgen counts anything else as a violation.
	if report.Failed > 0 {
		t.Fatalf("%d protocol violations: %v", report.Failed, report.Violations)
	}
	// Outcomes partition the run.
	if sum := report.OK + report.Shed + report.Refused + report.Deadline + report.Failed; sum != report.Requests {
		t.Errorf("outcomes sum to %d of %d requests", sum, report.Requests)
	}
	// Saturation must actually have been reached for this run to mean
	// anything, and every shed already proved it carried Retry-After.
	if report.Shed == 0 {
		t.Error("no sheds at 1000-way concurrency over a 2-slot class — admission broken")
	}
	if report.OK == 0 {
		t.Error("nothing succeeded under chaos")
	}
	// Degradation happened (FaultEvery=7 guarantees trips) and repeat
	// shapes hit the plan cache.
	if report.Degraded == 0 {
		t.Error("fault injection produced no degraded answers")
	}
	if report.CacheHits == 0 {
		t.Error("3000 requests over 10 case shapes produced no cache hits")
	}
	// Phase 2 — shed latency. At 1000-way oversubscription every
	// latency number is dominated by goroutine scheduling delay, so the
	// bound is asserted at a concurrency the host can actually schedule:
	// 64 workers against the 2-slot burst class still shed constantly,
	// and those 429s must come back fast — the shed path does no
	// planning work.
	burstBody, err := BuildRequestBodyMode(paperex.Example5(), "burst", false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	shedReport, err := RunLoad(context.Background(), doer, LoadConfig{
		Requests:    1000,
		Concurrency: 64,
		Cases:       []LoadCase{{Path: "/v1/query", Tenant: "burst", Body: burstBody}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shed phase: shed=%d of %d, shedP99=%v",
		shedReport.Shed, shedReport.Requests, time.Duration(shedReport.ShedP99NS))
	if shedReport.Failed > 0 {
		t.Fatalf("shed phase violations: %v", shedReport.Violations)
	}
	if shedReport.Shed == 0 {
		t.Error("64-way load over a 2-slot class shed nothing")
	}
	if p99 := time.Duration(shedReport.ShedP99NS); p99 > time.Second {
		t.Errorf("shed p99 = %v, want well under the 300ms class deadline ceiling", p99)
	}
	// Chaos counters moved deterministically: 3000 requests admitted or
	// shed; every 7th *admitted-or-not* arrival was scheduled to fault.
	if rec.Counter("serve.chaos.fault").Value() == 0 ||
		rec.Counter("serve.chaos.slow").Value() == 0 ||
		rec.Counter("serve.chaos.cancel").Value() == 0 {
		t.Error("chaos schedule did not fire all three injection kinds")
	}

	// The per-tenant breakdown partitions each phase exactly: every
	// class's outcomes sum to its request count, and the classes together
	// account for the whole run.
	for phase, rep := range map[string]*LoadReport{"mixed": report, "shed": shedReport} {
		total := 0
		for name, ts := range rep.PerTenant {
			total += ts.Requests
			if sum := ts.OK + ts.Shed + ts.Refused + ts.Deadline + ts.Failed; sum != ts.Requests {
				t.Errorf("%s phase, class %s: outcomes sum to %d of %d", phase, name, sum, ts.Requests)
			}
		}
		if total != rep.Requests {
			t.Errorf("%s phase: per-tenant requests sum to %d of %d", phase, total, rep.Requests)
		}
	}
	for _, class := range []string{"burst", "standard", "free"} {
		if report.PerTenant[class] == nil || report.PerTenant[class].Requests == 0 {
			t.Errorf("mixed phase has no per-tenant stats for %q", class)
		}
	}
	if ts := report.PerTenant["burst"]; ts != nil && ts.Shed == 0 {
		t.Error("the 2-slot burst class shed nothing at 1000-way concurrency")
	}

	// Flight-recorder accounting: with the ring oversized, nothing was
	// evicted and every shed and degraded request across both phases is
	// retained — zero drops unaccounted.
	flight, err := DecodeFlight(flightBody(t, doer))
	if err != nil {
		t.Fatalf("flight document invalid: %v", err)
	}
	if flight.Evicted != 0 {
		t.Fatalf("flight ring evicted %d entries despite cap %d", flight.Evicted, flight.Capacity)
	}
	if int64(len(flight.Entries)) != flight.Recorded {
		t.Fatalf("flight retains %d of %d recorded", len(flight.Entries), flight.Recorded)
	}
	var fShed, fDegraded int
	for _, e := range flight.Entries {
		if e.Outcome == "shed" {
			fShed++
		}
		if e.Degraded {
			fDegraded++
		}
		if e.TraceID == "" || e.Endpoint == "" {
			t.Fatalf("flight entry missing identity: %+v", e)
		}
	}
	if want := report.Shed + shedReport.Shed; fShed != want {
		t.Errorf("flight captured %d sheds, want %d", fShed, want)
	}
	if want := report.Degraded + shedReport.Degraded; fDegraded != want {
		t.Errorf("flight captured %d degraded answers, want %d", fDegraded, want)
	}

	// Drain and verify no goroutine leaks: everything the suite spawned
	// (workers, chaos timers, drain watcher) must wind down.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				before, now, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// flightBody fetches /debug/requests through the Doer.
func flightBody(t *testing.T, doer Doer) *bytes.Reader {
	t.Helper()
	res, err := doer.Do(context.Background(), http.MethodGet, "/debug/requests", nil)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("GET /debug/requests: %v status %d", err, res.Status)
	}
	return bytes.NewReader(res.Body)
}
