package optimizer

import (
	"math"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// optimizeNoCPNaive is the reference implementation of the
// Cartesian-product-avoiding optimizer kept for the ablation benchmark:
// it enumerates every split of each DP state with ProperSubsetPairs and
// filters, paying 2^(|s|−1) per state, where the production
// implementation (Optimize with SpaceNoCP) enumerates only the
// connected/connected splits. Both must return identical costs — the
// ablation tests assert it, and BenchmarkNoCPSplitAblation measures the
// gap.
func optimizeNoCPNaive(ev *database.Evaluator) (res Result, err error) {
	defer guard.Trap(&err)
	db := ev.Database()
	if err := db.Validate(); err != nil {
		return Result{}, err
	}
	g := db.Graph()
	comps := g.Components(db.All())
	compOf := make([]hypergraph.Set, db.Len())
	for _, c := range comps {
		for _, i := range c.Indexes() {
			compOf[i] = c
		}
	}
	isCompUnion := func(x hypergraph.Set) bool {
		var u hypergraph.Set
		for rest := x; rest != 0; {
			c := compOf[rest.First()]
			u = u.Union(c)
			rest = rest.Minus(c)
		}
		return u == x
	}

	rec := ev.Recorder()
	ledger := guard.DPLedger(ev.Guard(), rec)
	cStates := rec.Counter(obs.MetricDPAblationStates)
	cost := make(map[hypergraph.Set]int)
	pick := make(map[hypergraph.Set][2]hypergraph.Set)
	var solve func(s hypergraph.Set) int
	solve = func(s hypergraph.Set) int {
		if s.Len() == 1 {
			return 0
		}
		if c, ok := cost[s]; ok {
			return c
		}
		cStates.Inc()
		guard.Must(ledger.ChargeStates(1))
		best := math.MaxInt
		var bestSplit [2]hypergraph.Set
		s.ProperSubsetPairs(func(a, b hypergraph.Set) bool {
			allowed := false
			if s.SubsetOf(compOf[s.First()]) {
				allowed = g.Connected(a) && g.Connected(b)
			} else {
				allowed = isCompUnion(a) && isCompUnion(b)
			}
			if !allowed {
				return true
			}
			ca := solve(a)
			if ca == math.MaxInt {
				return true
			}
			cb := solve(b)
			if cb == math.MaxInt {
				return true
			}
			if total := ca + cb + ev.Size(s); total < best {
				best = total
				bestSplit = [2]hypergraph.Set{a, b}
			}
			return true
		})
		cost[s] = best
		if best != math.MaxInt {
			pick[s] = bestSplit
		}
		return best
	}
	total := solve(db.All())
	if total == math.MaxInt {
		return Result{Space: SpaceNoCP}, ErrEmptySpace
	}
	var build func(s hypergraph.Set) *strategy.Node
	build = func(s hypergraph.Set) *strategy.Node {
		if s.Len() == 1 {
			return strategy.Leaf(s.First())
		}
		p := pick[s]
		return strategy.Combine(build(p[0]), build(p[1]))
	}
	return Result{Space: SpaceNoCP, Strategy: build(db.All()), Cost: total, States: len(cost)}, nil
}
