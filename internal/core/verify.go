package core

import (
	"fmt"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// VerifyTheorem1Exhaustive checks Theorem 1's conclusion in its exact
// form: *every* τ-optimum linear strategy for the database avoids
// Cartesian products. (VerifyCertificates checks the weaker—but
// certificate-relevant—cost equality between the linear and
// linear-no-CP subspaces.) It enumerates the linear space, so it is
// meant for the small databases of the randomized validation runs.
func VerifyTheorem1Exhaustive(ev *database.Evaluator) (err error) {
	defer guard.Trap(&err)
	rec := ev.Recorder()
	defer rec.Timer(obs.MetricVerifyThm1Wall).Start().Stop()
	db := ev.Database()
	g := db.Graph()
	best, bad := firstOptimum(ev, strategy.EnumerateLinear, rec.Counter(obs.MetricVerifyThm1Strategies),
		func(n *strategy.Node) bool { return n.UsesCartesian(g) })
	if bad != nil {
		rec.Counter(obs.MetricVerifyCounterexamples).Inc()
		return fmt.Errorf("theorem 1 violated: τ-optimum linear strategy %s (cost %d) uses a Cartesian product",
			bad.Render(db), best)
	}
	return nil
}

// VerifyTheorem2Exhaustive checks Theorem 2's conclusion by enumeration:
// some τ-optimum strategy does not use Cartesian products.
func VerifyTheorem2Exhaustive(ev *database.Evaluator) (err error) {
	defer guard.Trap(&err)
	rec := ev.Recorder()
	defer rec.Timer(obs.MetricVerifyThm2Wall).Start().Stop()
	g := ev.Database().Graph()
	best, good := firstOptimum(ev, strategy.EnumerateAll, rec.Counter(obs.MetricVerifyThm2Strategies),
		func(n *strategy.Node) bool { return !n.UsesCartesian(g) })
	if good == nil {
		rec.Counter(obs.MetricVerifyCounterexamples).Inc()
		return fmt.Errorf("theorem 2 violated: no τ-optimum strategy (cost %d) is Cartesian-product-free", best)
	}
	return nil
}

// VerifyTheorem3Exhaustive checks Theorem 3's conclusion by enumeration:
// some τ-optimum strategy is linear and does not use Cartesian products.
func VerifyTheorem3Exhaustive(ev *database.Evaluator) (err error) {
	defer guard.Trap(&err)
	rec := ev.Recorder()
	defer rec.Timer(obs.MetricVerifyThm3Wall).Start().Stop()
	g := ev.Database().Graph()
	best, good := firstOptimum(ev, strategy.EnumerateAll, rec.Counter(obs.MetricVerifyThm3Strategies),
		func(n *strategy.Node) bool { return n.IsLinear() && !n.UsesCartesian(g) })
	if good == nil {
		rec.Counter(obs.MetricVerifyCounterexamples).Inc()
		return fmt.Errorf("theorem 3 violated: no τ-optimum strategy (cost %d) is linear and Cartesian-product-free", best)
	}
	return nil
}

// firstOptimum enumerates the space twice over every relation of the
// evaluator's database: the first pass fixes the optimal τ, the second
// stops at the first τ-optimum strategy that satisfies match. It returns
// the optimal τ and that strategy, or nil when no optimum matches. Each
// strategy visited in either pass counts in cEnum.
func firstOptimum(ev *database.Evaluator, enumerate func(hypergraph.Set, func(*strategy.Node) bool),
	cEnum *obs.Counter, match func(*strategy.Node) bool) (int, *strategy.Node) {
	all := ev.Database().All()
	best := -1
	enumerate(all, func(n *strategy.Node) bool {
		cEnum.Inc()
		if c := n.Cost(ev); best == -1 || c < best {
			best = c
		}
		return true
	})
	var hit *strategy.Node
	enumerate(all, func(n *strategy.Node) bool {
		cEnum.Inc()
		if n.Cost(ev) == best && match(n) {
			hit = n
			return false
		}
		return true
	})
	return best, hit
}
