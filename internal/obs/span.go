package obs

import (
	"sort"
	"time"
)

// Request-scoped tracing. A Span brackets one unit of request work —
// admission, a ladder rung, an optimize or execute phase — and records,
// besides wall time, the *guard deltas* it was responsible for: how many
// intermediate tuples, DP/evaluator states and join steps were charged
// while it was open. Summing the deltas of a request's leaf spans
// therefore reconciles exactly with the request guard's final ledger,
// which is the property the serve layer's trace tests assert. Spans are
// cheap (one registry append at End) and bounded (DefaultMaxSpans), so
// a per-request recorder can carry them on every response.

// DefaultMaxSpans bounds a recorder's completed-span buffer; spans ended
// past the cap are counted as dropped, mirroring the event stream's
// policy.
const DefaultMaxSpans = 1 << 12

// SpanRecord is a completed span as it appears in traces and responses.
type SpanRecord struct {
	// ID is the span's 1-based start-order position in its recorder.
	ID int64 `json:"id"`
	// Parent is the enclosing span's ID; 0 marks a root span.
	Parent int64 `json:"parent,omitempty"`
	// Name identifies the work the span brackets ("admission",
	// "rung:dp", "optimize", "execute", "phase.conditions", …).
	Name string `json:"name"`
	// StartNS is the span's start time in nanoseconds since the
	// recorder was created, aligning spans with the event stream's AtNS.
	StartNS int64 `json:"startNs"`
	// DurNS is the span's wall-clock duration in nanoseconds.
	DurNS int64 `json:"durNs"`
	// Attrs carries small bounded-cardinality annotations (tenant
	// class, rung name, cache outcome) — never per-request identifiers.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Tuples is the guard's intermediate-tuple spend attributed to this
	// span (the span's share of the running τ sum).
	Tuples int64 `json:"tuples,omitempty"`
	// States is the DP/evaluator state spend attributed to this span.
	States int64 `json:"states,omitempty"`
	// Steps is the join-step spend attributed to this span.
	Steps int64 `json:"steps,omitempty"`
	// Err carries the error text of a failed span.
	Err string `json:"err,omitempty"`
}

// Span is an in-flight trace span. The nil *Span is a valid no-op —
// every method returns without touching anything — so uninstrumented
// call paths cost a nil check. A Span is safe for
// concurrent use, though typically owned by one goroutine.
type Span struct {
	r     *Recorder
	rec   SpanRecord
	ended bool
}

// StartSpan opens a span parented to the innermost span this recorder
// currently has open (0 — a root span — when none is). The returned
// span must be closed with End, in the same function that started it or
// by a closure that function installs (the spanclose analyzer enforces
// this). On a nil recorder it returns the nil no-op span.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	at := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	var parent int64
	if n := len(r.openSpans); n > 0 {
		parent = r.openSpans[n-1].rec.ID
	}
	r.spanSeq++
	sp := &Span{r: r, rec: SpanRecord{ID: r.spanSeq, Parent: parent, Name: name, StartNS: at}}
	r.openSpans = append(r.openSpans, sp)
	return sp
}

// ID returns the span's identifier (0 for the nil span).
func (sp *Span) ID() int64 {
	if sp == nil {
		return 0
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	return sp.rec.ID
}

// SetAttr annotates the span. Keys must come from a bounded set — label
// cardinality rules apply to span attributes exactly as to metric
// labels.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	if sp.rec.Attrs == nil {
		sp.rec.Attrs = make(map[string]string, 2)
	}
	sp.rec.Attrs[key] = value
}

// AddDelta attributes guard spend — tuples, states, steps — to the
// span. Callers compute the deltas from guard snapshots taken at the
// span's boundaries, so the charge sites themselves stay untouched and
// the guardmirror reconciliation is undisturbed.
func (sp *Span) AddDelta(tuples, states, steps int64) {
	if sp == nil {
		return
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	sp.rec.Tuples += tuples
	sp.rec.States += states
	sp.rec.Steps += steps
}

// Fail records the error that ended the span's work.
func (sp *Span) Fail(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	sp.rec.Err = err.Error()
}

// End closes the span: its duration is stamped and the completed record
// joins the recorder's span buffer (or the dropped count past the cap).
// Ending a span twice records it once.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	r := sp.r
	at := time.Since(r.start).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp.ended {
		return
	}
	sp.ended = true
	sp.rec.DurNS = at - sp.rec.StartNS
	// Pop the span from the open stack wherever it sits — out-of-order
	// Ends (a parent closing before a straggler child) must not wedge
	// the stack.
	for i := len(r.openSpans) - 1; i >= 0; i-- {
		if r.openSpans[i] == sp {
			r.openSpans = append(r.openSpans[:i], r.openSpans[i+1:]...)
			break
		}
	}
	if len(r.spans) >= r.maxSpans {
		r.droppedSpans++
		return
	}
	r.spans = append(r.spans, sp.rec)
}

// Spans returns the completed spans in start (ID) order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DroppedSpans reports how many spans were discarded past the cap.
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedSpans
}

// SetMaxSpans adjusts the completed-span cap; n ≤ 0 drops all spans.
func (r *Recorder) SetMaxSpans(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.maxSpans = n
	r.mu.Unlock()
}
