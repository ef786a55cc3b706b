package optimizer

import (
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
)

// The optimizer's correctness hinges on the principle of optimality the
// paper articulates in Section 2: every substrategy of a τ-optimum
// strategy is itself τ-optimum for its sub-database. These tests check
// that principle directly on the DP's output.

func TestOptimalSubstructure(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 5)
		ev := database.NewEvaluator(db)
		res, err := Optimize(ev, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range res.Strategy.Steps() {
			// The subtree rooted at this step must cost exactly the DP
			// optimum for its subset.
			subDB := db.Restrict(step.Set())
			subEv := database.NewEvaluator(subDB)
			subBest, err := Optimize(subEv, SpaceAll)
			if err != nil {
				t.Fatal(err)
			}
			// Compare costs: translate the step's subtree cost into the
			// restricted index space by recomputing on the original
			// evaluator (same sets, same sizes).
			subtree := res.Strategy.Find(step.Set())
			if got := subtree.Cost(ev); got != subBest.Cost {
				t.Fatalf("trial %d: substrategy for %v costs %d, optimum %d",
					trial, step.Set(), got, subBest.Cost)
			}
		}
	}
}

func TestLinearDPSubstructure(t *testing.T) {
	// Every prefix of the optimal linear order is an optimal linear
	// strategy for its own subset.
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng, 5)
		ev := database.NewEvaluator(db)
		res, err := Optimize(ev, SpaceLinear)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range res.Strategy.Steps() {
			sub := res.Strategy.Find(step.Set())
			// Brute-force the best linear cost for this subset.
			best := -1
			enumLinearSubset(ev, step.Set(), func(cost int) {
				if best == -1 || cost < best {
					best = cost
				}
			})
			if got := sub.Cost(ev); got != best {
				t.Fatalf("trial %d: linear prefix for %v costs %d, best %d",
					trial, step.Set(), got, best)
			}
		}
	}
}

// enumLinearSubset enumerates linear strategies over a subset and
// reports their costs.
func enumLinearSubset(ev *database.Evaluator, s hypergraph.Set, fn func(int)) {
	idx := s.Indexes()
	perm := make([]int, 0, len(idx))
	used := make([]bool, len(idx))
	var prefixCost func(set hypergraph.Set) int
	prefixCost = func(set hypergraph.Set) int { return ev.Size(set) }
	var rec func(set hypergraph.Set, cost int)
	rec = func(set hypergraph.Set, cost int) {
		if len(perm) == len(idx) {
			fn(cost)
			return
		}
		for i, v := range idx {
			if used[i] {
				continue
			}
			used[i] = true
			perm = append(perm, v)
			next := set.Add(v)
			add := 0
			if len(perm) >= 2 {
				add = prefixCost(next)
			}
			rec(next, cost+add)
			perm = perm[:len(perm)-1]
			used[i] = false
		}
	}
	rec(0, 0)
}

func TestDPStateCountsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{4, 6, 8} {
		db := randomDB(rng, n)
		ev := database.NewEvaluator(db)
		all, err := Optimize(ev, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		// At most 2^n − n − 1 internal states (subsets of size ≥ 2).
		bound := (1 << n) - n - 1
		if all.States > bound {
			t.Fatalf("n=%d: %d states > bound %d", n, all.States, bound)
		}
		nocp, err := Optimize(ev, SpaceNoCP)
		if err != nil {
			t.Fatal(err)
		}
		if nocp.States > all.States {
			t.Fatalf("no-CP DP should touch no more states than the full DP")
		}
	}
}

func TestGreedyAlwaysSound(t *testing.T) {
	// Greedy never produces an invalid tree and never beats the optimum.
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 50; trial++ {
		db := randomDB(rng, 4+rng.Intn(3))
		ev := database.NewEvaluator(db)
		g := mustGreedy(t, ev)
		if err := g.Strategy.Validate(db.All()); err != nil {
			t.Fatal(err)
		}
		best, err := Optimize(ev, SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cost < best.Cost {
			t.Fatalf("greedy %d beat optimum %d", g.Cost, best.Cost)
		}
	}
}
