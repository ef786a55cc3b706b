// Package fixture exercises the metricnames analyzer: obs metric and
// span names must be registry constants or builder calls from
// internal/obs/names.go, never ad-hoc strings — not even ones that
// happen to equal a registered name.
package fixture

import "multijoin/internal/obs"

func record(rec *obs.Recorder, phase string, n int64) {
	// Registry constants, builders, and locals traced to them are clean.
	rec.Counter(obs.MetricEvalTuples).Add(n)
	defer rec.Timer(obs.MetricPhaseWall(phase)).Start().Stop()
	name := obs.MetricDPStates
	rec.Counter(name).Add(1)
	sp := rec.StartSpan(obs.SpanRequest)
	sp.End()
	rec.StartSpan(obs.SpanPhase(phase)).End()

	rec.Counter("eval.tuples").Add(n)        // want "Counter name must come from"
	rec.Gauge("queue.depth").Set(n)          // want "Gauge name must come from"
	rogue := rec.StartSpan("phase:" + phase) // want "StartSpan name must come from"
	rogue.End()
	local := "dp.states"
	rec.Counter(local).Add(1) // want "Counter name must come from"
}
