package serve

import (
	"context"
	"fmt"
	"math"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// The degradation ladder. The paper's strategy spaces are searched by
// algorithms of strictly decreasing cost and decreasing guarantees:
//
//	dp          subset dynamic program — the full space's τ-optimum,
//	            2^n states; refused up front when its (3^n+1)/2 − 2^n
//	            splits exceed the rung's state limit
//	yannakakis  semijoin-reduced join tree — acyclic schemes only,
//	            intermediates bounded by the output, polynomial
//	greedy      O(n³) heuristic probe — no guarantee, executes joins
//	estimate    statistics-only plan — never touches the data
//
// A budget trip at rung k is answered by rung k+1 under a fresh guard
// (the request deadline keeps running — the ladder degrades within the
// request's wall-clock contract, it does not extend it). The bottom
// rung plans purely from statistics, so every admitted request that
// survives to its deadline gets *an* answer; the response records which
// rung produced it and what tripped on the way down.
//
// A plan-cache hit re-enters the ladder at the entry's rung before the
// descent: a dp or estimate entry executes its stored plan, a yannakakis
// entry runs its rung again, and a hit that trips is a trip like any
// other.

// Rung identifies a ladder level, ordered best-first.
type Rung int

const (
	// RungDP runs the memoized subset dynamic program, whose τ is the
	// full space's optimum.
	RungDP Rung = iota
	// RungYannakakis runs the governed semijoin reduction + join-tree
	// join. It applies only to component-wise α-acyclic schemes and is
	// skipped otherwise; where it applies, its intermediates are bounded
	// by the output — often far below what the greedy probe would
	// materialize after the DP has tripped.
	RungYannakakis
	// RungGreedy runs the greedy heuristic over the full space.
	RungGreedy
	// RungEstimate plans from statistics without executing any join.
	RungEstimate
	rungCount
)

// RungExhaustive was the enumeration rung above RungDP.
//
// Deprecated: the rung is gone and no class may start at it; the name
// remains only so serve.rung.exhaustive.share can still be built from
// its String.
const RungExhaustive Rung = -1

// String names the rung as it appears in responses and metrics.
func (r Rung) String() string {
	switch r {
	case RungExhaustive:
		return "exhaustive"
	case RungDP:
		return "dp"
	case RungYannakakis:
		return "yannakakis"
	case RungGreedy:
		return "greedy"
	case RungEstimate:
		return "estimate"
	}
	return fmt.Sprintf("Rung(%d)", int(r))
}

// estimateDPMaxRelations bounds the estimate rung's own subset DP; past
// it the rung falls back to the left-deep order, which costs O(n).
const estimateDPMaxRelations = 12

// trip records one rung's governance failure on the way down.
type trip struct {
	rung Rung
	err  error
}

// ladderOutcome is a successful ladder descent.
type ladderOutcome struct {
	rung      Rung
	strategy  *strategy.Node
	cost      int64
	estimated bool
	// planCost is the cost planning produced, before executePlan
	// replaced cost with the τ it measured. A cache entry stores it, so
	// an unexecuted hit reports what its own planning would have.
	planCost int64
	// executed is set once the plan was materialized — by executePlan,
	// or by the yannakakis rung whose planning pass IS the execution —
	// and resultSize then holds |R_D|, estimate-mode plans included.
	executed   bool
	resultSize int
	cacheHit   bool // the plan-cache entry's rung answered
	trips      []trip
	// snapshot is the answering rung's final guard ledger.
	snapshot guard.Snapshot
	// analysis is the full four-space analysis, present only when the
	// request asked for analyze mode and the DP rung answered.
	analysis *core.Analysis
}

// ladderError is a descent in which every rung failed. It unwraps to
// the bottom rung's error, so guard.Tripped classifies it exactly as it
// would the underlying trip, while keeping the full descent history for
// the response body.
type ladderError struct {
	trips []trip
}

// Error names the last rung and its error.
func (e *ladderError) Error() string {
	last := e.trips[len(e.trips)-1]
	return fmt.Sprintf("serve: all rungs failed, last (%s): %v", last.rung, last.err)
}

// Unwrap exposes the bottom rung's error for errors.Is/As.
func (e *ladderError) Unwrap() error { return e.trips[len(e.trips)-1].err }

// degraded reports whether a rung tripped before the answering one.
func (o *ladderOutcome) degraded() bool { return len(o.trips) > 0 }

// ladderRequest carries everything one descent needs.
type ladderRequest struct {
	ctx     context.Context
	db      *database.Database
	ev      *database.Evaluator
	rec     *obs.Recorder
	start   Rung
	analyze bool
	// planMode selects exact or estimate-driven planning. PlanExact
	// keeps the estimate rung a never-executing last resort; the
	// estimate modes start the descent directly at that rung and let it
	// execute the chosen plan when execution was requested.
	planMode PlanMode
	// limits are every rung attempt's guard budgets. limitsFor, when
	// set, derives them per rung instead; tests inject trip-at-rung-k
	// schedules through it.
	limits    guard.Limits
	limitsFor func(Rung) guard.Limits
	// execute materializes the chosen plan's steps under the rung's
	// guard (query mode with execution requested). The estimate rung
	// never executes.
	execute bool
	// cached is the request's plan-cache entry, valid when hit is set.
	cached cachedPlan
	hit    bool
}

// runLadder tries the plan-cache entry's rung first, then descends from
// the request's own start rung (the entry may come from a class that
// starts higher) until a rung answers. The error return is non-nil only
// when every attempt failed — either the deadline died (a typed
// governance error) or a genuine internal error surfaced, which is never
// absorbed by degradation.
func runLadder(req ladderRequest) (ladderOutcome, error) {
	var out ladderOutcome
	if req.hit {
		err := attemptRung(req, req.cached.rung, true, &out)
		if err == nil {
			out.cacheHit = true
			return out, nil
		}
		if !guard.Tripped(err) {
			return ladderOutcome{}, err
		}
	}
	start := req.start
	if req.planMode != PlanExact && !req.analyze {
		// Estimate-driven planning is the fast path, not a degradation:
		// skip every executing rung and plan from statistics directly.
		start = RungEstimate
	}
	for rung := start; rung < rungCount; rung++ {
		// The yannakakis rung exists only for component-wise α-acyclic
		// schemes; the check is scheme-only and costs a GYO pass.
		if rung == RungYannakakis && !req.db.Graph().AcyclicComponents() {
			continue
		}
		err := attemptRung(req, rung, false, &out)
		if err == nil {
			return out, nil
		}
		if !guard.Tripped(err) {
			return ladderOutcome{}, err
		}
	}
	// Even the estimate rung failed: the deadline is dead (its only
	// governed work is reading base-relation statistics). Surface the
	// whole descent as one typed error.
	return ladderOutcome{}, &ladderError{trips: out.trips}
}

// attemptRung runs one rung under a fresh guard labelled with the
// rung's name, in a "rung:<name>" span whose "optimize" child wraps the
// planning work and whose "execute" child wraps any materialization.
// The guard-ledger readings at the span boundaries are the spans'
// τ/state attribution, so the answering rung's optimize and execute
// deltas sum exactly to the response's guard spend. cached marks the
// plan-cache entry's attempt, whose spans say cached="true". A trip is
// recorded in out.trips.
func attemptRung(req ladderRequest, rung Rung, cached bool, out *ladderOutcome) error {
	rsp := req.rec.StartSpan(obs.SpanRung(rung.String()))
	lim := req.limits
	if req.limitsFor != nil {
		lim = req.limitsFor(rung)
	}
	g := guard.New(req.ctx, lim)
	g.SetPhase(rung.String())
	req.ev.WithGuard(g)
	osp := req.rec.StartSpan(obs.SpanOptimize)
	if cached {
		rsp.SetAttr("cached", "true")
		osp.SetAttr("cached", "true")
	}
	err := planRung(req, rung, cached, g, out)
	out.planCost = out.cost
	planned := g.Snapshot()
	osp.AddDelta(planned.Tuples.Spent, planned.States.Spent, planned.Steps.Spent)
	osp.Fail(err)
	osp.End()

	if err == nil {
		esp := req.rec.StartSpan(obs.SpanExecute)
		if !req.execute || out.executed || (rung == RungEstimate && req.planMode == PlanExact) {
			// On the degradation path the estimate rung never executes (it
			// answers precisely because execution budgets are spent); in an
			// estimate planning mode the chosen plan does execute when
			// asked, reporting its true τ. The yannakakis rung executes
			// during planning (the reduced join IS the method), so its
			// execute span carries no separate work. Other rungs skip
			// execution when the request did not ask for it. The span still
			// appears, with zero deltas, so every answer carries the full
			// taxonomy.
			esp.SetAttr("skipped", "true")
		} else {
			err = req.executePlan(out)
			final := g.Snapshot()
			esp.AddDelta(final.Tuples.Spent-planned.Tuples.Spent,
				final.States.Spent-planned.States.Spent,
				final.Steps.Spent-planned.Steps.Spent)
			esp.Fail(err)
		}
		esp.End()
	}

	snap := g.Snapshot()
	rsp.AddDelta(snap.Tuples.Spent, snap.States.Spent, snap.Steps.Spent)
	rsp.Fail(err)
	rsp.End()
	switch {
	case err == nil:
		out.rung, out.snapshot = rung, snap
		if out.degraded() {
			req.rec.Counter(obs.MetricServeDegraded).Inc()
			req.rec.Counter(obs.MetricDegradedTo(rung.String())).Inc()
		}
	case guard.Tripped(err):
		req.rec.Counter(obs.MetricServeTrips).Inc()
		out.trips = append(out.trips, trip{rung: rung, err: err})
	}
	return err
}

// planRung runs one rung's planning work, filling
// out.strategy/cost/estimated (and out.analysis for analyze mode) on
// success; a cached dp or estimate entry's planning is reading its plan.
// Execution is the caller's concern. g is the rung's fresh guard — the
// executing rungs charge it through the evaluator, the estimate rung
// charges its model DP states directly.
func planRung(req ladderRequest, rung Rung, cached bool, g *guard.Guard, out *ladderOutcome) error {
	if cached && rung != RungYannakakis {
		out.strategy, out.cost, out.estimated = req.cached.strategy, req.cached.cost, req.cached.estimated
		return nil
	}
	switch rung {
	case RungDP:
		if err := checkDPSplits(req.db.Len(), g); err != nil {
			return err
		}
		if req.analyze {
			an, err := core.AnalyzeEvaluator(req.ev)
			if err != nil {
				return err
			}
			if !an.Complete() {
				// A truncated analysis is a trip for ladder purposes —
				// the greedy rung still owes the caller a plan — but the
				// partial profile is kept for the response.
				out.analysis = an
				return an.Truncated[0].Err
			}
			out.analysis = an
			res, ok := an.Result(optimizer.SpaceAll)
			if !ok {
				return fmt.Errorf("serve: analysis complete but missing the full-space optimum")
			}
			out.strategy, out.cost, out.estimated = res.Strategy, int64(res.Cost), false
			return nil
		}
		res, err := optimizer.Optimize(req.ev, optimizer.SpaceAll)
		if err != nil {
			return err
		}
		out.strategy, out.cost, out.estimated = res.Strategy, int64(res.Cost), false
		return nil

	case RungYannakakis:
		return yannakakisRung(req, g, out)

	case RungGreedy:
		res, err := optimizer.Greedy(req.ev)
		if err != nil {
			return err
		}
		out.strategy, out.cost, out.estimated = res.Strategy, int64(res.Cost), false
		return nil

	case RungEstimate:
		return estimateRung(req, g, out)
	}
	return fmt.Errorf("serve: unknown rung %d", int(rung))
}

// yannakakisRung runs the governed acyclic fast path: a full semijoin
// reduction along the scheme's GYO join trees, then the bottom-up join
// of the reduced relations along the same trees. Planning and execution
// are one pass here — the reduced join IS the method and its cost is
// measured, not estimated — so when execution was requested the result
// produced during planning is kept and executePlan is skipped. The
// reported strategy is the equivalent binary join-tree plan.
func yannakakisRung(req ladderRequest, g *guard.Guard, out *ladderOutcome) error {
	ev, err := semijoin.YannakakisGuarded(req.db, g, req.rec)
	if err != nil {
		return err
	}
	out.strategy, out.cost, out.estimated = ev.Strategy, int64(ev.Tau()), false
	if req.execute {
		out.resultSize, out.executed = ev.Result.Size(), true
	}
	return nil
}

// estimateRung plans from statistics only: gather the catalog (a linear
// pass over base relations, timed in plan.catalog.wall), then run the
// model-costed full-space DP. It still honors the request context, and
// its DP states charge the rung's guard — the same -max-states that
// governs exact planning — but it executes nothing itself, so on the
// degradation path it answers even when every execution budget is
// spent. The catalog is selected by the request's plan mode; the
// degradation path (PlanExact) uses the uniform model.
func estimateRung(req ladderRequest, g *guard.Guard, out *ladderOutcome) (err error) {
	defer guard.Protect(&err)
	if cerr := req.ctx.Err(); cerr != nil {
		return &guard.CancelError{Phase: "estimate", Cause: cerr}
	}
	cwatch := req.rec.Timer(obs.MetricPlanCatalogWall).Start()
	var size optimizer.SizeModel
	var modelCost func(*strategy.Node) float64
	if req.planMode == PlanHistogram {
		cat := estimate.NewHistogramCatalog(req.db)
		size, modelCost = cat.Size, cat.Cost
	} else {
		cat := estimate.NewCatalog(req.db)
		size, modelCost = cat.Size, cat.Cost
	}
	cwatch.Stop()
	var plan *strategy.Node
	var est float64
	if req.db.Len() <= estimateDPMaxRelations {
		res, rerr := optimizer.OptimizeModelObserved(req.db, size, optimizer.SpaceAll, g, req.rec)
		if rerr != nil {
			return rerr
		}
		plan, est = res.Strategy, res.Est
	} else {
		order := make([]int, req.db.Len())
		for i := range order {
			order[i] = i
		}
		plan = strategy.LeftDeep(order...)
		est = modelCost(plan)
	}
	out.strategy, out.cost, out.estimated = plan, int64(est), true
	return nil
}

// executePlan materializes the plan's steps (charging the rung's guard)
// and reads |R_D| from the final join they memoized, free of charge; the
// trap converts a trip during execution into this rung's failure,
// sending the ladder down.
func (req ladderRequest) executePlan(out *ladderOutcome) (err error) {
	defer guard.Trap(&err)
	out.cost = int64(out.strategy.Cost(req.ev))
	out.resultSize = req.ev.Size(req.db.All())
	out.executed = true
	return nil
}

// checkDPSplits refuses the full-space DP when its (3^n+1)/2 − 2^n
// splits exceed the guard's state limit: the DP charges one state per
// subset and none per split, so no budget bounds that work once it
// starts. The refusal wraps a BudgetError, which guard.Tripped
// classifies, and spends nothing.
func checkDPSplits(n int, g *guard.Guard) error {
	splits := int64(math.MaxInt64) // a lower bound: 3^n overflows past n = 40
	if n <= 40 {
		pow3 := uint64(1)
		for range n {
			pow3 *= 3
		}
		splits = int64((pow3+1)/2 - 1<<n)
	}
	snap := g.Snapshot()
	limit := snap.States.Limit
	if limit <= 0 || splits <= limit {
		return nil
	}
	return fmt.Errorf("serve: dp refused: %d relations need at least %d splits, over the state limit %d: %w",
		n, splits, limit, &guard.BudgetError{Resource: "states", Spent: snap.States.Spent, Limit: limit, Phase: snap.Phase})
}
