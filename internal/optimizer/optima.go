package optimizer

import (
	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// Optima returns every τ-optimum strategy in the given subspace, by
// enumeration: first the DP fixes the optimal cost, then the subspace is
// walked and each strategy attaining that cost is collected. It is meant
// for the small databases where the paper's uniqueness and existence
// claims are decidable (Example 5's "there is only one τ-optimum
// strategy", Theorem 2's "there is a τ-optimum strategy that…").
//
// The returned slice is empty only when the subspace itself is empty.
//
// Under a guarded evaluator the enumeration pass is interruptible: every
// cost lookup polls the guard, and a trip surfaces as its typed error.
func Optima(ev *database.Evaluator, space Space) (out []*strategy.Node, err error) {
	defer guard.Trap(&err)
	res, err := Optimize(ev, space)
	if err != nil {
		return nil, err
	}
	db := ev.Database()
	g := db.Graph()
	rec := ev.Recorder()
	cEnum := rec.Counter(obs.MetricOptimaEnumerated)
	cFound := rec.Counter(obs.MetricOptimaFound)
	defer rec.Timer(obs.MetricOptimaWall).Start().Stop()
	collect := func(n *strategy.Node) bool {
		cEnum.Inc()
		if n.Cost(ev) == res.Cost {
			cFound.Inc()
			out = append(out, n)
		}
		return true
	}
	switch space {
	case SpaceAll:
		strategy.EnumerateAll(db.All(), collect)
	case SpaceLinear:
		strategy.EnumerateLinear(db.All(), collect)
	case SpaceNoCP:
		strategy.EnumerateAvoidCP(g, db.All(), collect)
	case SpaceLinearNoCP:
		strategy.EnumerateLinear(db.All(), func(n *strategy.Node) bool {
			if n.AvoidsCartesian(g) {
				return collect(n)
			}
			return true
		})
	}
	return out, nil
}
