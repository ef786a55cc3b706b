// Package fixture seeds spanclose violations: spans started and leaked
// alongside every blessed way of closing or escaping one.
package fixture

import (
	"errors"

	"multijoin/internal/obs"
)

type tracer struct {
	rec  *obs.Recorder
	root *obs.Span
}

func endedInline(rec *obs.Recorder) {
	sp := rec.StartSpan("work")
	sp.SetAttr("k", "v")
	sp.End()
}

func endedDeferred(rec *obs.Recorder) {
	sp := rec.StartSpan("work")
	defer sp.End()
	sp.AddDelta(1, 2, 3)
}

func endedInInstalledClosure(rec *obs.Recorder) func() {
	sp := rec.StartSpan("phase")
	return func() {
		sp.Fail(errors.New("late"))
		sp.End()
	}
}

func escapesByReturn(rec *obs.Recorder) *obs.Span {
	return rec.StartSpan("handed-off")
}

func escapesByReturnOfLocal(rec *obs.Recorder) *obs.Span {
	sp := rec.StartSpan("handed-off")
	sp.SetAttr("k", "v")
	return sp
}

func closeElsewhere(sp *obs.Span) { sp.End() }

func escapesAsArgument(rec *obs.Recorder) {
	sp := rec.StartSpan("delegated")
	closeElsewhere(sp)
}

func escapesIntoField(t *tracer) {
	t.root = t.rec.StartSpan("request")
}

func escapesIntoStruct(rec *obs.Recorder) tracer {
	sp := rec.StartSpan("kept")
	return tracer{rec: rec, root: sp}
}

func discarded(rec *obs.Recorder) {
	rec.StartSpan("leaked") // want "span started and discarded"
}

func assignedToBlank(rec *obs.Recorder) {
	_ = rec.StartSpan("leaked") // want "span assigned to _"
}

func neverEnded(rec *obs.Recorder) {
	sp := rec.StartSpan("leaked") // want "never ended in this function"
	sp.SetAttr("k", "v")
}

func failWithoutEnd(rec *obs.Recorder) {
	sp := rec.StartSpan("leaked") // want "never ended in this function"
	sp.Fail(errors.New("tripped"))
}

func varDeclLeaked(rec *obs.Recorder) {
	var sp = rec.StartSpan("leaked") // want "never ended in this function"
	sp.SetAttr("k", "v")
}

// endInSiblingFunctionDoesNotCount: the ladder's in-loop End is fine
// because it is the same function; an End in a *different* top-level
// function does not close this one's span.
func endInSiblingFunctionDoesNotCount(rec *obs.Recorder) {
	sp := rec.StartSpan("leaked") // want "never ended in this function"
	_ = sp.ID()
}

func notASpanStart(rec *obs.Recorder) {
	rec.Counter("fine").Inc() // other obs calls are not the analyzer's business
}
