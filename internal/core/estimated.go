package core

import (
	"fmt"

	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// Estimate-driven planning: the analyze pipeline's second mode. Instead
// of obtaining exact τ for every DP subproblem by executing joins
// through the evaluator memo — faithful to the paper but unusable when
// you cannot run the query to plan it — AnalyzeEstimated builds a
// statistics catalog and runs the same four subspace DPs plus greedy
// against the catalog's size model, never touching tuple data. The
// chosen strategies can then be executed once (ExecuteChosen) to learn
// their true τ, which is how the planning bench section and the regret
// experiment quantify what trusting estimates costs.

// PlanModel selects the statistics model estimate-driven planning runs
// against.
type PlanModel int

const (
	// ModelUniform plans from estimate.Catalog: cardinalities and
	// distinct counts under uniformity and independence.
	ModelUniform PlanModel = iota
	// ModelHistogram plans from estimate.HistogramCatalog: exact
	// per-attribute value frequencies, independence still assumed across
	// predicates.
	ModelHistogram
)

// String names the model as it appears in flags, metrics and reports.
func (m PlanModel) String() string {
	switch m {
	case ModelUniform:
		return "uniform"
	case ModelHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// EstimatedResult is one model-driven search outcome, optionally costed
// under the true τ after execution.
type EstimatedResult struct {
	// Space is the searched subspace (SpaceGreedy for the heuristic).
	Space optimizer.Space
	// Strategy is the plan the model picked.
	Strategy *strategy.Node
	// Est is the model's estimated τ for the strategy.
	Est float64
	// States counts DP states (or greedy probes) examined.
	States int
	// TrueTau is the strategy's measured τ, -1 until ExecuteChosen runs.
	TrueTau int
}

// EstimatedAnalysis is AnalyzeEstimated's output: one model-chosen plan
// per non-empty subspace, plus the model-driven greedy heuristic.
type EstimatedAnalysis struct {
	// Model names the statistics model the plans were chosen under.
	Model string
	// Results holds one result per searchable subspace, in DPSpaces()
	// order, skipping empty subspaces.
	Results []EstimatedResult
	// Greedy is the model-driven smallest-result-first outcome.
	Greedy EstimatedResult
	// Yannakakis is the acyclic fast path's join-tree strategy costed
	// under the model, present only when the catalog-side (scheme-only)
	// acyclicity check passes. Est prices the binary join phase; the
	// fast path's actual execution additionally semijoin-reduces first,
	// so its realized intermediates are bounded by the output.
	Yannakakis *EstimatedResult
}

// Result returns the estimated result for the given space, if present.
func (a *EstimatedAnalysis) Result(s optimizer.Space) (EstimatedResult, bool) {
	if s == optimizer.SpaceGreedy {
		return a.Greedy, true
	}
	if s == optimizer.SpaceYannakakis {
		if a.Yannakakis == nil {
			return EstimatedResult{}, false
		}
		return *a.Yannakakis, true
	}
	for _, r := range a.Results {
		if r.Space == s {
			return r, true
		}
	}
	return EstimatedResult{}, false
}

// AnalyzeEstimated plans in every subspace from the model's statistics
// without executing a single join: it gathers the catalog (the only
// pass over tuple data, a linear scan timed in plan.catalog.wall), then
// runs the model-costed DPs and greedy sequentially — catalogs reuse
// scratch buffers and are not safe for concurrent probing. Each DP
// state charges the guard's state budget exactly like the exact
// pipeline's, so -max-states governs both modes; a trip unwinds as the
// typed governance error. Both g and rec may be nil.
func AnalyzeEstimated(db *database.Database, model PlanModel,
	g *guard.Guard, rec *obs.Recorder) (an *EstimatedAnalysis, err error) {
	defer guard.Trap(&err)
	if err := db.Validate(); err != nil {
		return nil, err
	}
	root := rec.StartSpan(obs.SpanPlan)
	defer root.End()
	before := g.Snapshot()
	defer func() {
		after := g.Snapshot()
		root.AddDelta(after.Tuples.Spent-before.Tuples.Spent,
			after.States.Spent-before.States.Spent,
			after.Steps.Spent-before.Steps.Spent)
		if err != nil {
			root.Fail(err)
		}
	}()
	watch := rec.Timer(obs.MetricPlanWall).Start()
	defer watch.Stop()

	cwatch := rec.Timer(obs.MetricPlanCatalogWall).Start()
	var size optimizer.SizeModel
	switch model {
	case ModelUniform:
		size = estimate.NewCatalog(db).Size
	case ModelHistogram:
		size = estimate.NewHistogramCatalog(db).Size
	default:
		cwatch.Stop()
		return nil, fmt.Errorf("core: unknown plan model %v", model)
	}
	cwatch.Stop()

	an = &EstimatedAnalysis{Model: model.String()}
	for _, sp := range optimizer.DPSpaces() {
		span := rec.StartSpan(obs.SpanPlanSpace(sp.String()))
		res, serr := optimizer.OptimizeModelObserved(db, size, sp, g, rec)
		if serr != nil {
			span.Fail(serr)
		}
		span.End()
		if serr == optimizer.ErrEmptySpace {
			continue
		}
		if serr != nil {
			return nil, serr
		}
		an.Results = append(an.Results, EstimatedResult{
			Space: sp, Strategy: res.Strategy, Est: res.Est,
			States: res.States, TrueTau: -1,
		})
	}
	gres, gerr := optimizer.GreedyModel(db, size, g, rec)
	if gerr != nil {
		return nil, gerr
	}
	an.Greedy = EstimatedResult{
		Space: optimizer.SpaceGreedy, Strategy: gres.Strategy, Est: gres.Est,
		States: gres.States, TrueTau: -1,
	}

	// Catalog-side acyclicity check: the fast path is planned from the
	// scheme alone — no tuple data — and its binary join phase is costed
	// under the same size model, so planMode pipelines can pick it
	// purely from statistics.
	if db.Graph().AcyclicComponents() {
		span := rec.StartSpan(obs.SpanPlanSpace(optimizer.SpaceYannakakis.String()))
		node, yerr := semijoin.JoinTreeStrategy(db)
		if yerr != nil {
			span.Fail(yerr)
			span.End()
			return nil, yerr
		}
		est := 0.0
		steps := 0
		for _, st := range node.Steps() {
			est += size(st.Set())
			steps++
		}
		if cerr := guard.PlanLedger(g, rec).ChargeStates(steps); cerr != nil {
			span.Fail(cerr)
			span.End()
			return nil, cerr
		}
		span.End()
		an.Yannakakis = &EstimatedResult{
			Space: optimizer.SpaceYannakakis, Strategy: node, Est: est,
			States: steps, TrueTau: -1,
		}
	}
	return an, nil
}

// ExecuteChosen costs every chosen strategy under the true τ by
// executing it through the evaluator — the one deliberate crossing from
// plan-time to run-time, after which TrueTau holds the measured cost.
// Execution charges the evaluator's guard; a budget trip unwinds as the
// typed governance error with the already-measured results retained.
func (a *EstimatedAnalysis) ExecuteChosen(ev *database.Evaluator) (err error) {
	defer guard.Trap(&err)
	for i := range a.Results {
		a.Results[i].TrueTau = a.Results[i].Strategy.Cost(ev)
	}
	a.Greedy.TrueTau = a.Greedy.Strategy.Cost(ev)
	if a.Yannakakis != nil {
		a.Yannakakis.TrueTau = a.Yannakakis.Strategy.Cost(ev)
	}
	return nil
}
