package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeParentsAndOrder(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan("request")
	child := rec.StartSpan("admission") // stack-parented to root
	child.End()
	rung := rec.StartSpan("rung:dp") // admission has ended: root again
	opt := rec.StartSpan("optimize")
	opt.AddDelta(10, 5, 2)
	opt.End()
	rung.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for i, sp := range spans {
		byName[sp.Name] = sp
		if i > 0 && spans[i-1].ID >= sp.ID {
			t.Errorf("spans not in ID order: %+v", spans)
		}
	}
	rootRec := byName["request"]
	if rootRec.Parent != 0 {
		t.Errorf("root span has parent %d", rootRec.Parent)
	}
	if byName["admission"].Parent != rootRec.ID {
		t.Errorf("stack parenting broken: admission parent %d, want %d",
			byName["admission"].Parent, rootRec.ID)
	}
	if byName["rung:dp"].Parent != rootRec.ID {
		t.Errorf("ended span still parents: rung parent %d, want %d",
			byName["rung:dp"].Parent, rootRec.ID)
	}
	if byName["optimize"].Parent != byName["rung:dp"].ID {
		t.Errorf("nested stack parenting broken")
	}
	if o := byName["optimize"]; o.Tuples != 10 || o.States != 5 || o.Steps != 2 {
		t.Errorf("deltas lost: %+v", o)
	}
}

func TestSpanAttrsErrAndDoubleEnd(t *testing.T) {
	rec := NewRecorder()
	sp := rec.StartSpan("work")
	sp.SetAttr("tenant", "free")
	sp.Fail(errors.New("tripped"))
	sp.End()
	sp.End() // second End records nothing
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("double End duplicated the span: %d records", len(spans))
	}
	if spans[0].Attrs["tenant"] != "free" || spans[0].Err != "tripped" {
		t.Errorf("attrs/err lost: %+v", spans[0])
	}
	if spans[0].DurNS < 0 {
		t.Errorf("negative duration: %+v", spans[0])
	}
}

func TestSpanCapAndDropped(t *testing.T) {
	rec := NewRecorder()
	rec.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		rec.StartSpan("s").End()
	}
	if got := len(rec.Spans()); got != 2 {
		t.Errorf("span buffer holds %d, want 2", got)
	}
	if got := rec.DroppedSpans(); got != 3 {
		t.Errorf("droppedSpans = %d, want 3", got)
	}
	snap := rec.Snapshot()
	if snap.Spans != 2 || snap.DroppedSpans != 3 {
		t.Errorf("snapshot spans=%d droppedSpans=%d, want 2/3", snap.Spans, snap.DroppedSpans)
	}
}

func TestNilSpanAndNilRecorderSpans(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpan("x")
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	// Every method must no-op on the nil span.
	sp.SetAttr("k", "v")
	sp.AddDelta(1, 2, 3)
	sp.Fail(errors.New("x"))
	sp.End()
	if sp.ID() != 0 {
		t.Error("nil span has an ID")
	}
	if rec.Spans() != nil || rec.DroppedSpans() != 0 {
		t.Error("nil recorder reports spans")
	}
}

func TestLabeledCountersAndGauges(t *testing.T) {
	rec := NewRecorder()
	a := rec.LabeledCounter("serve.requests.by", Labels{"tenant": "free", "endpoint": "/v1/query"})
	b := rec.LabeledCounter("serve.requests.by", Labels{"endpoint": "/v1/query", "tenant": "free"})
	if a != b {
		t.Fatal("label order changed the series identity")
	}
	a.Add(3)
	rec.LabeledCounter("serve.requests.by", Labels{"tenant": "premium", "endpoint": "/v1/query"}).Inc()
	rec.LabeledGauge("serve.running.by", Labels{"tenant": "free"}).Set(2)

	snap := rec.Snapshot()
	if len(snap.LabeledCounters) != 2 || len(snap.LabeledGauges) != 1 {
		t.Fatalf("snapshot sections wrong: %+v", snap)
	}
	// Deterministic order: free sorts before premium.
	if snap.LabeledCounters[0].Labels["tenant"] != "free" || snap.LabeledCounters[0].Value != 3 {
		t.Errorf("labeled counter section misordered or misvalued: %+v", snap.LabeledCounters)
	}

	var nilRec *Recorder
	if nilRec.LabeledCounter("x", nil) != nil || nilRec.LabeledGauge("x", nil) != nil {
		t.Error("nil recorder returned live labeled handles")
	}
}

func TestHistogramBucketsAndOverflow(t *testing.T) {
	rec := NewRecorder()
	h := rec.Histogram("lat", []int64{10, 100, 1000}, Labels{"tenant": "free"})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	counts, count, sum := h.Stats()
	want := []int64{2, 2, 0, 1} // ≤10: {5,10}; ≤100: {11,100}; ≤1000: none; overflow: 5000
	if count != 5 || sum != 5126 {
		t.Errorf("count=%d sum=%d, want 5/5126", count, sum)
	}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
	// Same series handle on re-registration, even with different bounds.
	if rec.Histogram("lat", []int64{1}, Labels{"tenant": "free"}) != h {
		t.Error("re-registration created a second series")
	}
	var nilRec *Recorder
	nh := nilRec.Histogram("x", nil, nil)
	nh.Observe(1) // must not panic
	if c, _, _ := nh.Stats(); c != nil {
		t.Error("nil histogram reports buckets")
	}
}

func TestAbsorbFoldsChildIntoRoot(t *testing.T) {
	root := NewRecorder()
	root.Counter("eval.tuples").Add(5)
	root.Timer("serve.request").Observe(2 * time.Millisecond)

	child := NewRecorder()
	child.Counter("eval.tuples").Add(7)
	child.Counter("dp.states").Add(3)
	child.Gauge("guard.tuples.spent").Set(7)
	child.Timer("serve.request").Observe(1 * time.Millisecond)
	child.Timer("serve.request").Observe(5 * time.Millisecond)
	child.LabeledCounter("by.tenant", Labels{"tenant": "free"}).Add(2)
	child.Histogram("lat", []int64{10}, Labels{"tenant": "free"}).Observe(3)
	child.StartSpan("request").End()
	child.Emit(Event{Kind: "point", Name: "x"})

	root.Absorb(child)

	if got := root.Counter("eval.tuples").Value(); got != 12 {
		t.Errorf("counter absorb: %d, want 12", got)
	}
	if got := root.Counter("dp.states").Value(); got != 3 {
		t.Errorf("new counter absorb: %d, want 3", got)
	}
	if got := root.Gauge("guard.tuples.spent").Value(); got != 7 {
		t.Errorf("gauge absorb: %d, want 7", got)
	}
	count, total, min, max := root.Timer("serve.request").Stats()
	if count != 3 || total != 8*time.Millisecond || min != time.Millisecond || max != 5*time.Millisecond {
		t.Errorf("timer absorb: count=%d total=%v min=%v max=%v", count, total, min, max)
	}
	if got := root.LabeledCounter("by.tenant", Labels{"tenant": "free"}).Value(); got != 2 {
		t.Errorf("labeled absorb: %d, want 2", got)
	}
	_, hCount, _ := root.Histogram("lat", []int64{10}, Labels{"tenant": "free"}).Stats()
	if hCount != 1 {
		t.Errorf("histogram absorb: count %d, want 1", hCount)
	}
	// Request-scoped state stays with the child.
	if len(root.Spans()) != 0 || len(root.Events()) != 0 {
		t.Error("absorb leaked spans or events into the root")
	}
	// Nil and self absorb are no-ops.
	root.Absorb(nil)
	root.Absorb(root)
	var nilRec *Recorder
	nilRec.Absorb(child)
}

func TestWritePrometheusAndCheck(t *testing.T) {
	rec := NewRecorder()
	rec.Counter("serve.requests").Add(10)
	rec.Gauge("serve.admit.running").Set(2)
	rec.Timer("serve.request").Observe(3 * time.Millisecond)
	rec.LabeledCounter("serve.requests.by",
		Labels{"tenant": "free", "endpoint": "/v1/query", "outcome": "ok"}).Add(4)
	rec.Histogram("serve.request.latency", DefaultLatencyBucketsNS,
		Labels{"tenant": "free", "endpoint": "/v1/query", "outcome": "ok"}).Observe(2_000_000)

	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE serve_requests counter",
		"serve_requests 10",
		"# TYPE serve_admit_running gauge",
		"serve_request_count 1",
		`serve_requests_by{endpoint="/v1/query",outcome="ok",tenant="free"} 4`,
		"# TYPE serve_request_latency histogram",
		`serve_request_latency_bucket{endpoint="/v1/query",outcome="ok",tenant="free",le="3000000"} 1`,
		`le="+Inf"`,
		`serve_request_latency_count{endpoint="/v1/query",outcome="ok",tenant="free"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if err := CheckPrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("self-rendered exposition fails validation: %v", err)
	}
}

func TestCheckPrometheusRejectsGarbage(t *testing.T) {
	for name, text := range map[string]string{
		"empty":           "",
		"comments only":   "# TYPE x counter\n",
		"bad name":        "# TYPE 1bad counter\n1bad 3\n",
		"bad value":       "# TYPE x counter\nx notanumber\n",
		"untyped series":  "x 3\n",
		"unbalanced":      "# TYPE x counter\nx{a=\"b 3\n",
		"missing value":   "# TYPE x counter\nx\n",
		"unknown type":    "# TYPE x wiggle\nx 3\n",
		"histogram alone": "x_bucket{le=\"+Inf\"} 3\n",
	} {
		if err := CheckPrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A histogram family TYPE covers its suffixed series.
	ok := "# TYPE x histogram\nx_bucket{le=\"+Inf\"} 3\nx_sum 9\nx_count 3\n"
	if err := CheckPrometheus(strings.NewReader(ok)); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}

// TestMetricsSchemaV2StrictDecode pins the schema bump: a v2 snapshot
// with the new sections round-trips, a v1 document is rejected by
// schema, and unknown fields stay fatal.
func TestMetricsSchemaV2StrictDecode(t *testing.T) {
	rec := NewRecorder()
	rec.Counter("c").Inc()
	rec.LabeledCounter("lc", Labels{"tenant": "free"}).Inc()
	rec.Histogram("h", []int64{10}, Labels{"tenant": "free"}).Observe(3)
	rec.StartSpan("s").End()

	var buf bytes.Buffer
	if err := rec.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeMetrics(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 snapshot rejected: %v", err)
	}
	if snap.Schema != "multijoin/metrics/v2" {
		t.Errorf("schema = %q", snap.Schema)
	}
	if snap.Spans != 1 || len(snap.LabeledCounters) != 1 || len(snap.Histograms) != 1 {
		t.Errorf("new sections lost in round trip: %+v", snap)
	}

	v1 := `{"schema":"multijoin/metrics/v1","uptimeNs":1,"counters":{},"gauges":{},"timers":{},"events":0,"droppedEvents":0}`
	if _, err := DecodeMetrics(strings.NewReader(v1)); err == nil {
		t.Error("v1 document accepted after the schema bump")
	}
	bad := `{"schema":"multijoin/metrics/v2","uptimeNs":1,"counters":{},"gauges":{},"timers":{},"events":0,"droppedEvents":0,"spans":0,"droppedSpans":0,"extra":1}`
	if _, err := DecodeMetrics(strings.NewReader(bad)); err == nil {
		t.Error("unknown field accepted by the strict decoder")
	}
	badHist := `{"schema":"multijoin/metrics/v2","uptimeNs":1,"counters":{},"gauges":{},"timers":{},"events":0,"droppedEvents":0,"spans":0,"droppedSpans":0,"histograms":[{"name":"h","bounds":[1,2],"counts":[1],"count":1,"sum":1}]}`
	if _, err := DecodeMetrics(strings.NewReader(badHist)); err == nil {
		t.Error("histogram with mismatched counts length accepted")
	}
}

// TestTraceSchemaV2CarriesSpans pins the trace bump: spans serialize
// and survive the strict decoder, and v1 traces are rejected.
func TestTraceSchemaV2CarriesSpans(t *testing.T) {
	rec := NewRecorder()
	sp := rec.StartSpan("request")
	rec.Emit(Event{Kind: "point", Name: "x"})
	sp.End()

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v2 trace rejected: %v", err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "request" {
		t.Errorf("spans lost in round trip: %+v", tr)
	}
	v1 := `{"schema":"multijoin/trace/v1","dropped":0,"events":[]}`
	if _, err := DecodeTrace(strings.NewReader(v1)); err == nil {
		t.Error("v1 trace accepted after the schema bump")
	}
}
