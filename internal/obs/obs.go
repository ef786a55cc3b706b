// Package obs is the engine's observability layer: named counters,
// gauges and timers with atomic snapshot support, plus a structured
// event stream (span-style begin/end records carrying phase, subset
// cardinality and tuple counts).
//
// The paper's whole argument turns on counting — τ(S) is a sum of
// per-step result sizes, and Theorems 1–3 are claims about which search
// subspaces still contain the τ-minimum — so the engine's metrics are
// chosen to mirror the paper's quantities exactly: `eval.tuples` is the
// running τ ledger, `eval.states`/`dp.states` count the memoized
// subsets and DP states the optimizers examine, and the "step" events
// of an evaluation trace carry the per-join operand and result sizes
// whose sum is τ(S).
//
// Like guard.Guard, every method is safe on a nil *Recorder (and on the
// nil *Counter/*Gauge/*Timer handles a nil recorder returns), so
// uninstrumented call paths cost a nil check and nothing else. All
// types are safe for concurrent use: joinserve's concurrent requests
// share the server's Recorder.
//
// The package is dependency-free (standard library only) and does not
// import any other engine package, so every layer — guard, database,
// optimizer, core, cli — can thread a Recorder without import cycles.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing named metric. The nil *Counter
// is a valid no-op, so instrumented hot paths need no recorder check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named metric that can move both ways (worker pool sizes,
// budget spend copied at a point in time). The nil *Gauge is a valid
// no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the gauge's current value (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates named durations: observation count, total, min and
// max. The nil *Timer is a valid no-op.
type Timer struct {
	mu    sync.Mutex
	count int64
	total time.Duration
	min   time.Duration
	max   time.Duration
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.total += d
}

// Stats returns the timer's observation count, total, min and max.
func (t *Timer) Stats() (count int64, total, min, max time.Duration) {
	if t == nil {
		return 0, 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count, t.total, t.min, t.max
}

// Start begins a stopwatch feeding this timer; call Stop on the result.
func (t *Timer) Start() Stopwatch {
	if t == nil {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stopwatch is an in-flight timer observation. The zero Stopwatch (from
// a nil timer or recorder) is a valid no-op.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Stop records the elapsed time on the stopwatch's timer and returns
// it. Stopping the zero Stopwatch records nothing.
func (s Stopwatch) Stop() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.Observe(d)
	return d
}

// Event is one record of the structured evaluation trace. Kind
// classifies it: "begin"/"end" bracket a phase or span, "point" marks an
// instantaneous observation, "step" carries one join step of a strategy
// trace, and "phase" marks a phase transition with the engine's spend at
// the boundary.
type Event struct {
	// Seq is the event's position in the stream (0-based, assigned at
	// emission).
	Seq int64 `json:"seq"`
	// AtNS is the emission time in nanoseconds since the recorder was
	// created, so traces order and align without wall-clock parsing.
	AtNS int64 `json:"atNs"`
	// Kind is "begin", "end", "point", "step" or "phase".
	Kind string `json:"kind"`
	// Phase is the engine phase current at emission ("load",
	// "optimize:linear", …); stamped from the recorder when empty.
	Phase string `json:"phase,omitempty"`
	// Name identifies what the event describes: a span name, a counter,
	// or a step's rendered join expression.
	Name string `json:"name,omitempty"`
	// Subset is the cardinality |D′| of the subset the event concerns
	// (a materialized state, a step's output scheme).
	Subset int `json:"subset,omitempty"`
	// Tuples is the event's result size — for "step" events the τ
	// contribution of the join.
	Tuples int64 `json:"tuples,omitempty"`
	// Left and Right are a step's operand sizes.
	Left int64 `json:"left,omitempty"`
	// Right is the right operand's size.
	Right int64 `json:"right,omitempty"`
	// States is the number of states spent/examined at this point (used
	// by "phase" events to snapshot the guard ledger).
	States int64 `json:"states,omitempty"`
	// Steps is the number of join steps executed at this point.
	Steps int64 `json:"steps,omitempty"`
	// DurNS is an "end" event's span duration in nanoseconds.
	DurNS int64 `json:"durNs,omitempty"`
	// Cartesian marks a step joining unlinked sub-databases.
	Cartesian bool `json:"cartesian,omitempty"`
	// Shrinks marks a step whose result is no larger than either operand
	// (the Section 5 monotone vocabulary).
	Shrinks bool `json:"shrinks,omitempty"`
	// Grows marks a step whose result is no smaller than either operand.
	Grows bool `json:"grows,omitempty"`
	// Err carries the error text of a failed or truncated span.
	Err string `json:"err,omitempty"`
}

// DefaultMaxEvents bounds the event stream so an exponential enumeration
// cannot turn the trace buffer into the very memory blow-up the guard
// exists to prevent; events past the cap are counted as dropped.
const DefaultMaxEvents = 1 << 16

// Recorder is the engine's observability handle: a registry of named
// counters, gauges and timers plus a bounded structured event stream.
// The nil *Recorder is valid and free — every method no-ops, and the
// metric handles it returns are the nil no-op handles — so the engine
// threads recorders unconditionally.
type Recorder struct {
	start time.Time

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	labeled    map[string]*labeledSeries // labeled counter series
	labeledG   map[string]*labeledSeries // labeled gauge series
	histograms map[string]*labeledSeries
	phase      string
	events     []Event
	seq        int64
	dropped    int64
	maxEvents  int

	spans        []SpanRecord
	openSpans    []*Span
	spanSeq      int64
	droppedSpans int64
	maxSpans     int
}

// NewRecorder creates an empty recorder with the default event cap.
func NewRecorder() *Recorder {
	return &Recorder{
		start:      time.Now(),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		labeled:    make(map[string]*labeledSeries),
		labeledG:   make(map[string]*labeledSeries),
		histograms: make(map[string]*labeledSeries),
		maxEvents:  DefaultMaxEvents,
		maxSpans:   DefaultMaxSpans,
	}
}

// SetMaxEvents adjusts the event-stream cap; n ≤ 0 drops all events.
func (r *Recorder) SetMaxEvents(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.maxEvents = n
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. On a nil
// recorder it returns the nil no-op counter.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// recorder it returns the nil no-op gauge.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use. On a nil
// recorder it returns the nil no-op timer.
func (r *Recorder) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// SetPhase labels subsequent events with the engine phase; mirrors
// guard.Guard.SetPhase so the trace and the governance errors agree on
// what was running.
func (r *Recorder) SetPhase(phase string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = phase
	r.mu.Unlock()
}

// Phase returns the recorder's current phase label.
func (r *Recorder) Phase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// Emit appends an event to the stream, stamping its sequence number,
// relative timestamp, and (when empty) the current phase. Events beyond
// the cap are dropped and counted.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	at := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq
	r.seq++
	e.AtNS = at
	if e.Phase == "" {
		e.Phase = r.phase
	}
	if len(r.events) >= r.maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns a copy of the event stream in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Dropped reports how many events were discarded past the cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// absorb folds another timer's aggregate into this one.
func (t *Timer) absorb(count int64, total, min, max time.Duration) {
	if t == nil || count == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || min < t.min {
		t.min = min
	}
	if max > t.max {
		t.max = max
	}
	t.count += count
	t.total += total
}

// absorb adds another histogram's buckets into this one; bucket layouts
// must agree (they do when both sides registered with the same bounds).
func (h *Histogram) absorb(counts []int64, count, sum int64) {
	if h == nil || len(counts) != len(h.counts) {
		return
	}
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(count)
	h.sum.Add(sum)
}

// Absorb folds a child recorder's counters, gauges, timers, labeled
// series and histograms into r — the step that rolls a per-request
// recorder up into the server's root recorder once the request is done,
// so process-lifetime totals (and their reconciliation invariants) keep
// holding while each request still gets its own isolated trace. Counter
// and histogram values add; gauges take the child's last value; the
// child's events and spans are *not* absorbed — they are request-scoped
// by design. Absorbing nil, or absorbing into nil, is a no-op.
func (r *Recorder) Absorb(child *Recorder) {
	if r == nil || child == nil || r == child {
		return
	}
	// Copy the child's handle maps under its lock, then read each handle
	// with its own synchronization — never holding both recorders' locks
	// at once.
	child.mu.Lock()
	counters := make(map[string]*Counter, len(child.counters))
	for k, v := range child.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(child.gauges))
	for k, v := range child.gauges {
		gauges[k] = v
	}
	timers := make(map[string]*Timer, len(child.timers))
	for k, v := range child.timers {
		timers[k] = v
	}
	labeled := make([]*labeledSeries, 0, len(child.labeled))
	for _, s := range child.labeled {
		labeled = append(labeled, s)
	}
	labeledG := make([]*labeledSeries, 0, len(child.labeledG))
	for _, s := range child.labeledG {
		labeledG = append(labeledG, s)
	}
	histograms := make([]*labeledSeries, 0, len(child.histograms))
	for _, s := range child.histograms {
		histograms = append(histograms, s)
	}
	child.mu.Unlock()

	for k, c := range counters {
		if v := c.Value(); v != 0 {
			r.Counter(k).Add(v)
		}
	}
	for k, g := range gauges {
		r.Gauge(k).Set(g.Value())
	}
	for k, t := range timers {
		count, total, min, max := t.Stats()
		r.Timer(k).absorb(count, total, min, max)
	}
	for _, s := range labeled {
		if v := s.c.Value(); v != 0 {
			r.LabeledCounter(s.name, s.labels).Add(v)
		}
	}
	for _, s := range labeledG {
		r.LabeledGauge(s.name, s.labels).Set(s.g.Value())
	}
	for _, s := range histograms {
		counts, count, sum := s.h.Stats()
		if count != 0 {
			r.Histogram(s.name, s.h.Bounds(), s.labels).absorb(counts, count, sum)
		}
	}
}

// timeSince is time.Since, named so the snapshot code reads as a single
// clock source.
func timeSince(t time.Time) time.Duration { return time.Since(t) }
