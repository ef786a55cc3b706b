// Package optimizer finds τ-optimum strategies within the subspaces that
// the paper's query optimizers search (Section 1):
//
//   - SpaceAll: every strategy — the full bushy space;
//   - SpaceLinear: linear strategies (GAMMA's space);
//   - SpaceNoCP: strategies that avoid Cartesian products in the paper's
//     extended sense (INGRES, Starburst);
//   - SpaceLinearNoCP: linear strategies that avoid Cartesian products
//     (System R, Office-by-Example).
//
// All four run as memoized dynamic programs over subsets of the database
// scheme: because τ is a sum of per-step result sizes and R_D′ depends
// only on the *set* D′ (joins commute and associate), the principle of
// optimality applies — the paper itself leans on it when it observes that
// substrategies of a τ-optimum strategy are τ-optimum.
package optimizer

import (
	"errors"
	"fmt"
	"math"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// Space identifies a strategy subspace to search.
type Space int

const (
	// SpaceAll searches every strategy.
	SpaceAll Space = iota
	// SpaceLinear searches linear strategies only.
	SpaceLinear
	// SpaceNoCP searches strategies that avoid Cartesian products:
	// components evaluated individually, no product steps except the
	// comp(D)−1 mandatory ones combining components.
	SpaceNoCP
	// SpaceLinearNoCP searches linear strategies that avoid Cartesian
	// products. On some unconnected schemes this subspace is empty (two
	// multi-relation components cannot both appear as prefixes of one
	// linear tree); Optimize then returns ErrEmptySpace.
	SpaceLinearNoCP
	// SpaceGreedy labels results of the Greedy heuristic. It is not a
	// searched subspace — Greedy walks the full space heuristically — so
	// Optimize rejects it; the label exists so traces and reports never
	// present a heuristic result as a DP optimum.
	SpaceGreedy
	// SpaceExhaustive labels results of the Exhaustive reference
	// enumeration. Like SpaceGreedy it is a method label, not a
	// searchable subspace, and Optimize rejects it.
	SpaceExhaustive
	// SpaceYannakakis labels results of the acyclic fast path: a full
	// semijoin reduction along a GYO join tree followed by a bottom-up
	// join of the reduced relations (internal/semijoin). It is a method
	// label like SpaceGreedy — the join tree is derived from the scheme,
	// not searched — so Optimize rejects it.
	SpaceYannakakis
)

// String names the space.
func (s Space) String() string {
	switch s {
	case SpaceAll:
		return "all"
	case SpaceLinear:
		return "linear"
	case SpaceNoCP:
		return "no-cartesian"
	case SpaceLinearNoCP:
		return "linear-no-cartesian"
	case SpaceGreedy:
		return "greedy"
	case SpaceExhaustive:
		return "exhaustive"
	case SpaceYannakakis:
		return "yannakakis"
	}
	return fmt.Sprintf("Space(%d)", int(s))
}

// DPSpaces lists the four subspaces Optimize's dynamic program can
// search, in the canonical analysis order. The method labels
// SpaceGreedy and SpaceExhaustive are deliberately absent.
func DPSpaces() []Space {
	return []Space{SpaceAll, SpaceNoCP, SpaceLinear, SpaceLinearNoCP}
}

// ErrEmptySpace is returned when the requested subspace contains no
// strategy for the database (only possible for SpaceLinearNoCP on
// schemes with two or more multi-relation components).
var ErrEmptySpace = errors.New("optimizer: subspace contains no strategy for this scheme")

// Result is an optimization outcome.
type Result struct {
	Space    Space
	Strategy *strategy.Node
	Cost     int
	// States is the number of distinct DP states (subsets) examined — a
	// proxy for optimizer effort, used by the search-space experiments.
	States int
}

// Optimize returns a τ-optimum strategy within the given subspace.
//
// When the evaluator carries a guard.Guard, the search is governed: each
// DP state examined charges the state budget, each materialization
// charges the tuple/step budgets, and a trip or cancellation returns the
// guard's typed error (guard.Tripped reports it) instead of running on.
func Optimize(ev *database.Evaluator, space Space) (res Result, err error) {
	defer guard.Trap(&err)
	switch space {
	case SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP:
	default:
		// SpaceGreedy/SpaceExhaustive label how a result was obtained;
		// they are not subspaces the DP can search.
		return Result{}, fmt.Errorf("optimizer: %v is not a searchable subspace", space)
	}
	db := ev.Database()
	if err := db.Validate(); err != nil {
		return Result{}, err
	}
	rec := ev.Recorder()
	// The exact size model: τ from the memoized evaluator, which joins
	// connected subsets and multiplies the sizes of a Cartesian product's
	// components. Each size is at most database.MaxSize = 2^53, so it is
	// exact in float64, and a cost, a sum of at most n−1 sizes, converts
	// to int without overflow. The float64 DP core reproduces integer
	// arithmetic bit for bit while costs stay below 2^53; only plans
	// through products no join could materialize pass that and round.
	size := func(s hypergraph.Set) float64 { return float64(ev.Size(s)) }
	o := newDP(db, size, ev.Guard(), rec, space, dpCounters(rec, space))
	defer rec.Timer(obs.MetricDPSpaceWall(space.String())).Start().Stop()
	all := db.All()
	cost := o.solve(all)
	if math.IsInf(cost, 1) {
		return Result{Space: space}, ErrEmptySpace
	}
	return Result{
		Space:    space,
		Strategy: o.build(all),
		Cost:     int(cost),
		States:   len(o.memo),
	}, nil
}

const inf = math.MaxInt

// dpCounters resolves the exact pipeline's per-subspace counters (the
// dp.<space>.* family reconciling with guard.ChargeStates).
func dpCounters(rec *obs.Recorder, space Space) [4]*obs.Counter {
	return [4]*obs.Counter{
		rec.Counter(obs.MetricDPSpaceStates(space.String())),
		rec.Counter(obs.MetricDPStates),
		rec.Counter(obs.MetricDPSpacePruned(space.String())),
		rec.Counter(obs.MetricDPSpaceCartesian(space.String())),
	}
}

// newDP builds the subset dynamic program over an arbitrary size model.
// counters carries the four resolved counters (per-space states, shared
// states ledger, pruned, cartesian), so the exact and the
// estimate-costed pipelines account under their own metric families.
func newDP(db *database.Database, size SizeModel, gd *guard.Guard, rec *obs.Recorder,
	space Space, counters [4]*obs.Counter) *dp {
	o := &dp{
		g:     db.Graph(),
		space: space,
		size:  size,
		gd:    gd,
		memo:  make(map[hypergraph.Set]dpEntry),

		cStates:      counters[0],
		cStatesAll:   counters[1],
		cPruned:      counters[2],
		cCartesian:   counters[3],
		hasCartesian: rec != nil,
	}
	o.components = o.g.Components(o.g.All())
	o.compOf = make([]hypergraph.Set, db.Len())
	for _, c := range o.components {
		for _, i := range c.Indexes() {
			o.compOf[i] = c
		}
	}
	return o
}

// dp is the memoized subset dynamic program shared by all four spaces
// and both cost regimes: the exact pipeline plugs in the evaluator's
// measured τ, the planning pipeline an estimate.Catalog model. Costs are
// float64 throughout — the exact pipeline's sizes are integers of at most
// 2^53 (database.MaxSize), so its costs are exact until a sum passes
// 2^53, which only plans through unmaterializable products reach.
type dp struct {
	g          *hypergraph.Graph
	space      Space
	size       SizeModel
	gd         *guard.Guard
	components []hypergraph.Set
	compOf     []hypergraph.Set // relation index -> its component
	memo       map[hypergraph.Set]dpEntry

	// Observability: subsets expanded (per-space and the shared
	// `dp.states` ledger reconciling with guard.ChargeStates), splits
	// pruned because a side admits no subtree, and Cartesian-product
	// steps considered. hasCartesian gates the per-split linkage probe
	// so uninstrumented searches skip it entirely.
	cStates      *obs.Counter
	cStatesAll   *obs.Counter
	cPruned      *obs.Counter
	cCartesian   *obs.Counter
	hasCartesian bool
}

// dpEntry is a solved DP state: the cheapest subtree cost of its subset
// (+Inf when the space admits none) and the root split attaining it.
type dpEntry struct {
	cost float64
	pick [2]hypergraph.Set
}

// solve returns the cheapest subtree cost for the subset s within the
// space's constraints, or +Inf when no valid subtree exists.
func (o *dp) solve(s hypergraph.Set) float64 {
	if s.Len() == 1 {
		return 0
	}
	if e, ok := o.memo[s]; ok {
		return e.cost
	}
	// Mirror before charging, like the evaluator: a charge that trips
	// the budget is counted by the guard, so the ledger must count it
	// too for the two to reconcile on truncated runs.
	o.cStates.Inc()
	o.cStatesAll.Inc()
	guard.Must(o.gd.ChargeStates(1))
	best := math.Inf(1)
	o.memo[s] = dpEntry{cost: best} // guard against re-entry; overwritten below
	var bestSplit [2]hypergraph.Set
	// |R_s| is the same on every split, so the model is asked once, at
	// the first split that survives pruning: the exact pipeline's
	// evaluator then sees its first request for s where it always did.
	var size float64
	sized := false

	consider := func(a, b hypergraph.Set) {
		if o.hasCartesian && !o.g.Linked(a, b) {
			o.cCartesian.Inc()
		}
		ca := o.solve(a)
		if math.IsInf(ca, 1) {
			o.cPruned.Inc()
			return
		}
		cb := o.solve(b)
		if math.IsInf(cb, 1) {
			o.cPruned.Inc()
			return
		}
		if !sized {
			size, sized = o.size(s), true
		}
		total := ca + cb + size
		if total < best {
			best = total
			bestSplit = [2]hypergraph.Set{a, b}
		}
	}

	switch o.space {
	case SpaceAll:
		s.ProperSubsetPairs(func(a, b hypergraph.Set) bool {
			consider(a, b)
			return true
		})
	case SpaceLinear:
		for t := s; t != 0; t &= t - 1 {
			i := t.First()
			consider(s.Remove(i), hypergraph.Singleton(i))
		}
	case SpaceNoCP:
		if s.SubsetOf(o.compOf[s.First()]) {
			// Within one component: genuine joins only — enumerate the
			// connected/connected splits directly (csg/cmp pairs), which
			// is output-sensitive instead of 2^|s| on sparse schemes.
			o.g.ConnectedSplits(s, func(a, b hypergraph.Set) bool {
				consider(a, b)
				return true
			})
		} else {
			// Across components: both sides must be exact component
			// unions; enumerate splits of the component-index mask.
			comps := o.componentsOf(s)
			mask := hypergraph.Full(len(comps))
			mask.ProperSubsetPairs(func(am, bm hypergraph.Set) bool {
				var a, b hypergraph.Set
				for t := am; t != 0; t &= t - 1 {
					a = a.Union(comps[t.First()])
				}
				for t := bm; t != 0; t &= t - 1 {
					b = b.Union(comps[t.First()])
				}
				consider(a, b)
				return true
			})
		}
	case SpaceLinearNoCP:
		for t := s; t != 0; t &= t - 1 {
			i := t.First()
			rest := s.Remove(i)
			leaf := hypergraph.Singleton(i)
			if o.allowedNoCP(s, rest, leaf) {
				consider(rest, leaf)
			}
		}
	}
	o.memo[s] = dpEntry{cost: best, pick: bestSplit}
	return best
}

// allowedNoCP reports whether the split s = a ⊎ b is permitted in a
// strategy that avoids Cartesian products: inside a component both parts
// must be connected (so the step is a genuine join); across components
// both parts must be exact unions of components (so each component is
// evaluated individually before any mandatory product).
func (o *dp) allowedNoCP(s, a, b hypergraph.Set) bool {
	if s.SubsetOf(o.compOf[s.First()]) {
		return o.g.Connected(a) && o.g.Connected(b)
	}
	return o.isComponentUnion(a) && o.isComponentUnion(b)
}

// componentsOf returns the scheme components making up s (s must be a
// union of components, as avoid-CP DP states above component level are).
func (o *dp) componentsOf(s hypergraph.Set) []hypergraph.Set {
	var out []hypergraph.Set
	for rest := s; rest != 0; {
		c := o.compOf[rest.First()]
		out = append(out, c)
		rest = rest.Minus(c)
	}
	return out
}

// isComponentUnion reports whether x is an exact union of scheme
// components.
func (o *dp) isComponentUnion(x hypergraph.Set) bool {
	var u hypergraph.Set
	for rest := x; rest != 0; {
		c := o.compOf[rest.First()]
		u = u.Union(c)
		rest = rest.Minus(c)
	}
	return u == x
}

// build reconstructs the optimal tree for s from the pick table.
func (o *dp) build(s hypergraph.Set) *strategy.Node {
	if s.Len() == 1 {
		return strategy.Leaf(s.First())
	}
	split := o.memo[s].pick
	return strategy.Combine(o.build(split[0]), o.build(split[1]))
}

// greedyCand is one candidate pair of the greedy probe loop, carrying
// everything the tie-break needs. The zero value (ok=false) loses to
// every real candidate. Sizes are float64 so the exact probe (integer
// τ, compared exactly — ints this small are float64-representable) and
// the estimate-model probe share the loop.
type greedyCand struct {
	i, j   int
	size   float64
	linked bool
	ok     bool
}

// better reports whether c beats o under the documented tie-break
// order: smaller join first, then linked pairs over unlinked, then the
// lexicographically lowest (i, j).
func (c greedyCand) better(o greedyCand) bool {
	if !c.ok || !o.ok {
		return c.ok
	}
	if c.size != o.size {
		return c.size < o.size
	}
	if c.linked != o.linked {
		return c.linked
	}
	if c.i != o.i {
		return c.i < o.i
	}
	return c.j < o.j
}

// Greedy returns the strategy produced by the classic smallest-result
// heuristic: repeatedly replace the pair of current results whose join is
// smallest (ties broken toward linked pairs, then lower indexes). It is
// the cheap baseline the paper's optimizers compete with; it inspects
// O(n³) joins and offers no optimality guarantee.
func Greedy(ev *database.Evaluator) Result {
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cStates := rec.Counter(obs.MetricGreedyStates)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricGreedyWall).Start().Stop()
	g := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	states := 0
	for len(pool) > 1 {
		states += len(pool) * (len(pool) - 1) / 2
		var best greedyCand
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				cStates.Inc()
				cStatesAll.Inc() // before the charge, so a trip still reconciles
				guard.Must(gd.ChargeStates(1))
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
	}
	root := pool[0]
	return Result{Space: SpaceGreedy, Strategy: root, Cost: root.Cost(ev), States: states}
}

// Exhaustive finds a τ-optimum strategy by enumerating the entire space —
// the reference implementation the DPs are validated against in tests.
// It is usable only for small databases ((2n−3)!! strategies).
//
// Every enumerated strategy charges one state against the evaluator's
// guard, so a -max-states budget bounds the (2n−3)!! enumeration itself
// rather than only the tuple spend of the costings inside it.
func Exhaustive(ev *database.Evaluator) Result {
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cEnum := rec.Counter(obs.MetricExhaustiveStrategies)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricExhaustiveWall).Start().Stop()
	best := inf
	var bestNode *strategy.Node
	count := 0
	strategy.EnumerateAll(db.All(), func(n *strategy.Node) bool {
		count++
		cEnum.Inc()
		cStatesAll.Inc() // before the charge, so a trip still reconciles
		guard.Must(gd.ChargeStates(1))
		if c := n.Cost(ev); c < best {
			best, bestNode = c, n
		}
		return true
	})
	return Result{Space: SpaceExhaustive, Strategy: bestNode, Cost: best, States: count}
}

// GreedyGuarded is Greedy with the evaluator's resource guard trapped:
// a budget trip or cancellation surfaces as the guard's typed error
// instead of unwinding through the caller. It is the last rung of the
// CLI's degradation ladder (exhaustive → DP → greedy).
func GreedyGuarded(ev *database.Evaluator) (res Result, err error) {
	defer guard.Trap(&err)
	return Greedy(ev), nil
}

// ExhaustiveGuarded is Exhaustive with the evaluator's resource guard
// trapped, for callers that need the reference enumeration to fail soft.
func ExhaustiveGuarded(ev *database.Evaluator) (res Result, err error) {
	defer guard.Trap(&err)
	return Exhaustive(ev), nil
}

// Systems names the production optimizers the paper's Section 1 places
// in each subspace: GAMMA searches linear strategies, INGRES and
// Starburst avoid Cartesian products, System R and Office-by-Example use
// linear strategies that avoid Cartesian products. SpaceAll is the
// unrestricted reference space.
func (s Space) Systems() []string {
	switch s {
	case SpaceLinear:
		return []string{"GAMMA"}
	case SpaceNoCP:
		return []string{"INGRES", "Starburst"}
	case SpaceLinearNoCP:
		return []string{"System R", "Office-by-Example"}
	}
	return nil
}
