package optimizer

import (
	"fmt"
	"math"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// Estimate-costed planning: the same subset dynamic programs and greedy
// heuristic as the exact pipeline, run against a pluggable size model
// instead of the evaluator — so a plan is chosen without touching tuple
// data. The caller (core.AnalyzeEstimated, the serve estimate rung) may
// then execute only the chosen strategy to learn its true τ, which is
// how the planning bench section measures regret.

// SizeModel scores τ(R_S) for a subset without executing any join — the
// contract estimate.Catalog.Size and estimate.HistogramCatalog.Size
// satisfy. Models built on shared scratch buffers are not safe for
// concurrent use; the model-driven searches here probe sequentially.
type SizeModel func(s hypergraph.Set) float64

// ModelResult is an estimate-costed optimization outcome. Unlike
// Result, the cost is the model's float estimate, not a measured τ.
type ModelResult struct {
	// Space is the searched subspace (or SpaceGreedy for GreedyModel).
	Space Space
	// Strategy is the chosen plan.
	Strategy *strategy.Node
	// Est is the model's estimated τ for the strategy.
	Est float64
	// States counts the DP states (or greedy probes) examined.
	States int
}

// OptimizeModel returns the strategy minimizing the model's estimated τ
// within the given subspace, ungoverned and unobserved. It never
// executes a join. SpaceLinearNoCP can be empty on unconnected schemes,
// in which case ErrEmptySpace is returned, exactly as for Optimize.
func OptimizeModel(db *database.Database, size SizeModel, space Space) (ModelResult, error) {
	return OptimizeModelObserved(db, size, space, nil, nil)
}

// OptimizeModelObserved is OptimizeModel under governance and
// observability: each DP state charges the guard's state budget
// (mirrored in the plan.<space>.states / plan.states counters, so the
// planning ledger reconciles like the exact DP's), and the subspace's
// wall time lands in plan.<space>.wall. Either g or rec may be nil.
func OptimizeModelObserved(db *database.Database, size SizeModel, space Space,
	g *guard.Guard, rec *obs.Recorder) (res ModelResult, err error) {
	defer guard.Trap(&err)
	switch space {
	case SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP:
	default:
		return ModelResult{}, fmt.Errorf("optimizer: %v is not a searchable subspace", space)
	}
	if err := db.Validate(); err != nil {
		return ModelResult{}, err
	}
	o := newDP(db, size, g, rec, space, planCounters(rec, space))
	defer rec.Timer(obs.MetricPlanSpaceWall(space.String())).Start().Stop()
	all := db.All()
	cost := o.solve(all)
	if math.IsInf(cost, 1) {
		return ModelResult{Space: space}, ErrEmptySpace
	}
	return ModelResult{
		Space:    space,
		Strategy: o.build(all),
		Est:      cost,
		States:   len(o.memo),
	}, nil
}

// planCounters resolves the planning pipeline's per-subspace counters
// (the plan.<space>.* family, with plan.states as the shared ledger
// mirroring guard.ChargeStates).
func planCounters(rec *obs.Recorder, space Space) [4]*obs.Counter {
	return [4]*obs.Counter{
		rec.Counter(obs.MetricPlanSpaceStates(space.String())),
		rec.Counter(obs.MetricPlanStates),
		rec.Counter(obs.MetricPlanSpacePruned(space.String())),
		rec.Counter(obs.MetricPlanSpaceCartesian(space.String())),
	}
}

// GreedyModel runs the classic smallest-result-first heuristic against
// the size model instead of the evaluator: every probe is a model
// lookup, no join is executed. The probe loop is strictly sequential —
// catalog-backed models reuse scratch buffers and are not safe for
// concurrent use — and applies the same total tie-break order as
// Greedy (size, then linked pairs, then lowest indexes), so on a model
// that equals the exact sizes it picks the same strategy.
func GreedyModel(db *database.Database, size SizeModel) (ModelResult, error) {
	return GreedyModelObserved(db, size, nil, nil)
}

// GreedyModelObserved is GreedyModel under governance and
// observability: each probed pair charges the guard's state budget
// (mirrored in plan.greedy.states / plan.states), and the heuristic's
// wall time lands in plan.greedy.wall. Either g or rec may be nil.
func GreedyModelObserved(db *database.Database, size SizeModel,
	g *guard.Guard, rec *obs.Recorder) (res ModelResult, err error) {
	defer guard.Trap(&err)
	if err := db.Validate(); err != nil {
		return ModelResult{}, err
	}
	cStates := rec.Counter(obs.MetricPlanGreedyStates)
	cStatesAll := rec.Counter(obs.MetricPlanStates)
	defer rec.Timer(obs.MetricPlanGreedyWall).Start().Stop()
	graph := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	states, est := 0, 0.0
	for len(pool) > 1 {
		var best greedyCand
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				cStates.Inc()
				cStatesAll.Inc() // before the charge, so a trip still reconciles
				guard.Must(g.ChargeStates(1))
				states++
				a, b := pool[i].Set(), pool[j].Set()
				c := greedyCand{
					i: i, j: j,
					size:   size(a.Union(b)),
					linked: graph.Linked(a, b),
					ok:     true,
				}
				if c.better(best) {
					best = c
				}
			}
		}
		// Each combine's estimated size is counted exactly once, so the
		// running sum is the model cost of the final tree.
		est += best.size
		joined := strategy.Combine(pool[best.i], pool[best.j])
		pool[best.j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		pool[best.i] = joined
	}
	return ModelResult{Space: SpaceGreedy, Strategy: pool[0], Est: est, States: states}, nil
}

// GreedyEarlyStop is the statistics-free greedy heuristic with early
// termination on empty intermediates: it probes true sizes through the
// evaluator like Greedy, but the moment the best available pair joins
// to the empty relation it folds every remaining input into that empty
// intermediate left-deep and stops probing — each remaining step joins
// with ∅ and contributes τ = 0, so no further probe can improve the
// plan. This is the "when greedy beats optimal" contender the planning
// bench section races against the estimate-costed DPs: on selective
// workloads it reaches a τ-optimal plan after a handful of probes.
//
// Probing executes joins and charges the evaluator's guard; a budget
// trip unwinds as a guard abort exactly like Greedy's.
func GreedyEarlyStop(ev *database.Evaluator) Result {
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cStates := rec.Counter(obs.MetricGreedyEarlyStates)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricGreedyEarlyWall).Start().Stop()
	g := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	states := 0
	for len(pool) > 1 {
		var best greedyCand
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				cStates.Inc()
				cStatesAll.Inc() // before the charge, so a trip still reconciles
				guard.Must(gd.ChargeStates(1))
				states++
				a, b := pool[i].Set(), pool[j].Set()
				c := greedyCand{
					i: i, j: j,
					size:   float64(ev.Size(a.Union(b))),
					linked: g.Linked(a, b),
					ok:     true,
				}
				if c.better(best) {
					best = c
				}
			}
		}
		joined := strategy.Combine(pool[best.i], pool[best.j])
		pool[best.j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		pool[best.i] = joined
		if best.size == 0 {
			// The intermediate is empty: every further join stays empty,
			// so fold the rest in any order and stop probing.
			rest := pool[:0:0]
			for _, n := range pool {
				if n != joined {
					rest = append(rest, n)
				}
			}
			for _, n := range rest {
				joined = strategy.Combine(joined, n)
			}
			pool = pool[:1]
			pool[0] = joined
		}
	}
	root := pool[0]
	return Result{Space: SpaceGreedy, Strategy: root, Cost: root.Cost(ev), States: states}
}
