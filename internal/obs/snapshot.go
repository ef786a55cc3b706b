package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Schema version strings embedded in every machine-readable artifact the
// engine emits, so downstream tooling can reject shapes it does not
// understand instead of misreading them.
const (
	// MetricsSchema identifies the metrics snapshot JSON shape
	// (joinopt -metrics-out). v2 added spans/droppedSpans and the
	// labeled-series sections (labeledCounters, labeledGauges,
	// histograms) that back the per-tenant ops plane.
	MetricsSchema = "multijoin/metrics/v2"
	// TraceSchema identifies the structured trace JSON shape
	// (joinopt -trace-out). v2 added the completed-span list and its
	// dropped count alongside the event stream.
	TraceSchema = "multijoin/trace/v2"
	// BenchSchema identifies the bench-pipeline JSON shape
	// (experiments -bench, BENCH_joinopt.json). v2 added the kernel
	// micro-benchmark section (ns/op, B/op, allocs/op, partitions); v3
	// added the analysis section comparing sequential against parallel
	// four-subspace analyze wall time; v4 added the serve section
	// (joinserve load run: outcome counts, shed/cache rates, latency
	// quantiles); v5 added the serve section's per-tenant-class
	// breakdown and latency-histogram summary; v6 added the planning
	// section (estimate-driven planning walls, the exact-vs-plan-only
	// speedup, and per-subspace regret under the uniform and histogram
	// models plus greedy early termination); v7 added the acyclic
	// section (Yannakakis fast-path τ and max intermediate against the
	// best binary-join subspace, differential-matched per case); v8
	// dropped the analysis section and the cases' prewarmNs and
	// analyzeNs with the analyze fan-out and the prewarm they measured;
	// v9 dropped the kernel and serve sections, the totals and the
	// cases' statesPerSec, which repeated what the relation package's
	// benchmarks, the chaos suite and the other leaves already hold.
	BenchSchema = "multijoin/bench/v9"
)

// TimerStats is a timer's aggregate in a snapshot.
type TimerStats struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// TotalNS, MinNS and MaxNS are the aggregate durations in
	// nanoseconds.
	TotalNS int64 `json:"totalNs"`
	// MinNS is the smallest observation.
	MinNS int64 `json:"minNs"`
	// MaxNS is the largest observation.
	MaxNS int64 `json:"maxNs"`
}

// Snapshot is a point-in-time copy of every metric in a recorder,
// serializable as the schema-versioned metrics JSON.
type Snapshot struct {
	// Schema is MetricsSchema.
	Schema string `json:"schema"`
	// Phase is the engine phase current when the snapshot was taken.
	Phase string `json:"phase,omitempty"`
	// UptimeNS is the recorder's age at snapshot time in nanoseconds.
	UptimeNS int64 `json:"uptimeNs"`
	// Counters, Gauges and Timers hold every named metric, keys sorted.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds the point-in-time gauge values.
	Gauges map[string]int64 `json:"gauges"`
	// Timers holds the aggregate timer statistics.
	Timers map[string]TimerStats `json:"timers"`
	// LabeledCounters holds every labeled counter series, sorted by
	// name then canonical label string.
	LabeledCounters []LabeledValue `json:"labeledCounters,omitempty"`
	// LabeledGauges holds every labeled gauge series, same order.
	LabeledGauges []LabeledValue `json:"labeledGauges,omitempty"`
	// Histograms holds every histogram series, same order.
	Histograms []HistogramStats `json:"histograms,omitempty"`
	// Events is the number of events currently buffered; DroppedEvents
	// counts emissions past the cap.
	Events int64 `json:"events"`
	// DroppedEvents counts events discarded past the stream cap.
	DroppedEvents int64 `json:"droppedEvents"`
	// Spans is the number of completed spans currently buffered.
	Spans int64 `json:"spans"`
	// DroppedSpans counts spans discarded past the span cap.
	DroppedSpans int64 `json:"droppedSpans"`
}

// LabeledValue is one labeled counter or gauge series in a snapshot.
type LabeledValue struct {
	// Name is the family name.
	Name string `json:"name"`
	// Labels is the series' label set.
	Labels Labels `json:"labels,omitempty"`
	// Value is the series' value at snapshot time.
	Value int64 `json:"value"`
}

// HistogramStats is one histogram series in a snapshot.
type HistogramStats struct {
	// Name is the family name.
	Name string `json:"name"`
	// Labels is the series' label set.
	Labels Labels `json:"labels,omitempty"`
	// Bounds are the inclusive upper bounds, ascending.
	Bounds []int64 `json:"bounds"`
	// Counts are the per-bucket observation counts; its length is
	// len(Bounds)+1, the final entry counting overflow observations.
	Counts []int64 `json:"counts"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
}

// Snapshot copies every metric atomically enough for reconciliation:
// each counter/gauge/timer is read with its own synchronization, and the
// registry is locked against concurrent metric creation. On a nil
// recorder it returns an empty, schema-stamped snapshot.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{
		Schema:   MetricsSchema,
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Timers:   map[string]TimerStats{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	snap.Phase = r.phase
	snap.Events = int64(len(r.events))
	snap.DroppedEvents = r.dropped
	snap.Spans = int64(len(r.spans))
	snap.DroppedSpans = r.droppedSpans
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(r.timers))
	for k, v := range r.timers {
		timers[k] = v
	}
	labeled := make([]*labeledSeries, 0, len(r.labeled))
	for _, s := range r.labeled {
		labeled = append(labeled, s)
	}
	labeledG := make([]*labeledSeries, 0, len(r.labeledG))
	for _, s := range r.labeledG {
		labeledG = append(labeledG, s)
	}
	histograms := make([]*labeledSeries, 0, len(r.histograms))
	for _, s := range r.histograms {
		histograms = append(histograms, s)
	}
	r.mu.Unlock()
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		snap.Gauges[k] = g.Value()
	}
	for k, t := range timers {
		count, total, min, max := t.Stats()
		snap.Timers[k] = TimerStats{
			Count: count, TotalNS: total.Nanoseconds(),
			MinNS: min.Nanoseconds(), MaxNS: max.Nanoseconds(),
		}
	}
	for _, s := range labeled {
		snap.LabeledCounters = append(snap.LabeledCounters,
			LabeledValue{Name: s.name, Labels: s.labels.clone(), Value: s.c.Value()})
	}
	for _, s := range labeledG {
		snap.LabeledGauges = append(snap.LabeledGauges,
			LabeledValue{Name: s.name, Labels: s.labels.clone(), Value: s.g.Value()})
	}
	for _, s := range histograms {
		counts, count, sum := s.h.Stats()
		snap.Histograms = append(snap.Histograms, HistogramStats{
			Name: s.name, Labels: s.labels.clone(), Bounds: s.h.Bounds(),
			Counts: counts, Count: count, Sum: sum,
		})
	}
	sortLabeledValues(snap.LabeledCounters)
	sortLabeledValues(snap.LabeledGauges)
	sort.Slice(snap.Histograms, func(i, j int) bool {
		a, b := snap.Histograms[i], snap.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels.canonical() < b.Labels.canonical()
	})
	// Uptime last, so it upper-bounds every AtNS in the trace.
	snap.UptimeNS = timeSince(r.start).Nanoseconds()
	return snap
}

// sortLabeledValues orders a snapshot section by name then canonical
// label string, so snapshots are byte-stable across runs.
func sortLabeledValues(vals []LabeledValue) {
	sort.Slice(vals, func(i, j int) bool {
		if vals[i].Name != vals[j].Name {
			return vals[i].Name < vals[j].Name
		}
		return vals[i].Labels.canonical() < vals[j].Labels.canonical()
	})
}

// Trace is the serializable form of the structured event stream.
type Trace struct {
	// Schema is TraceSchema.
	Schema string `json:"schema"`
	// Dropped counts events discarded past the stream cap.
	Dropped int64 `json:"dropped"`
	// DroppedSpans counts spans discarded past the span cap.
	DroppedSpans int64 `json:"droppedSpans,omitempty"`
	// Events is the buffered stream in emission order.
	Events []Event `json:"events"`
	// Spans is the completed-span list in start order.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// TraceSnapshot copies the event stream into its serializable form.
func (r *Recorder) TraceSnapshot() Trace {
	return Trace{
		Schema:       TraceSchema,
		Dropped:      r.Dropped(),
		DroppedSpans: r.DroppedSpans(),
		Events:       r.Events(),
		Spans:        r.Spans(),
	}
}

// WriteMetrics writes the recorder's metrics snapshot as indented,
// schema-versioned JSON with deterministic key order.
func (r *Recorder) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteTrace writes the structured event stream as indented,
// schema-versioned JSON.
func (r *Recorder) WriteTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.TraceSnapshot())
}

// DecodeMetrics reads and validates a metrics snapshot: the document
// must parse, carry the current MetricsSchema, and contain no unknown
// fields — the validation the CI bench job gates on.
func DecodeMetrics(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var snap Snapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("obs: decoding metrics JSON: %w", err)
	}
	if snap.Schema != MetricsSchema {
		return nil, fmt.Errorf("obs: metrics schema %q, want %q", snap.Schema, MetricsSchema)
	}
	if snap.Counters == nil || snap.Gauges == nil || snap.Timers == nil {
		return nil, fmt.Errorf("obs: metrics JSON missing counters/gauges/timers sections")
	}
	for _, h := range snap.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return nil, fmt.Errorf("obs: histogram %q has %d counts for %d bounds (want bounds+1)",
				h.Name, len(h.Counts), len(h.Bounds))
		}
	}
	return &snap, nil
}

// DecodeTrace reads and validates a structured trace document.
func DecodeTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var tr Trace
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("obs: decoding trace JSON: %w", err)
	}
	if tr.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", tr.Schema, TraceSchema)
	}
	return &tr, nil
}
