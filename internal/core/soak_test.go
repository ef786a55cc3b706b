package core

import (
	"context"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/optimizer"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// TestSoakEndToEnd is the wide randomized cross-validation pass: many
// databases drawn from every generator family, each run through the full
// pipeline — analysis, certificate verification, all four optimizers,
// both rewrites, the reducer — with every internal consistency property
// asserted. It is the closest thing to a fuzzer the deterministic model
// admits, and it runs in normal `go test` (kept under a few seconds by
// sizing; skipped in -short).
func TestSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 150; trial++ {
		db := soakDatabase(rng, trial)
		ev := database.NewEvaluator(db)

		// The soak runs governed with budgets far above any healthy
		// trial's spend: a regression that makes evaluation blow up now
		// fails fast with a typed budget error instead of wedging the
		// suite.
		g := guard.New(context.Background(), guard.Limits{MaxTuples: 1 << 22, MaxStates: 1 << 20})
		an, err := AnalyzeEvaluator(database.NewEvaluator(db).WithGuard(g))
		if err != nil {
			t.Fatalf("trial %d: analyze: %v", trial, err)
		}
		if !an.Complete() {
			t.Fatalf("trial %d: soak budget tripped: %v", trial, an.Truncated[0].Err)
		}
		if err := VerifyCertificates(an); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, db)
		}

		// Optimizers: containments and validity.
		all, aok := an.Result(optimizer.SpaceAll)
		if !aok {
			t.Fatalf("trial %d: no SpaceAll result", trial)
		}
		for _, res := range an.Results {
			if err := res.Strategy.Validate(db.All()); err != nil {
				t.Fatalf("trial %d: %s invalid: %v", trial, res.Space, err)
			}
			if res.Cost < all.Cost {
				t.Fatalf("trial %d: %s beat the full space", trial, res.Space)
			}
			if got := res.Strategy.Cost(ev); got != res.Cost {
				t.Fatalf("trial %d: %s reported %d actual %d", trial, res.Space, res.Cost, got)
			}
		}

		// Rewrites: always land in their subspaces; under the certified
		// conditions they must not increase τ.
		s := randomSoakStrategy(rng, db)
		noCP := AvoidCPRewrite(ev, s)
		if !noCP.AvoidsCartesian(db.Graph()) {
			t.Fatalf("trial %d: AvoidCPRewrite missed the subspace", trial)
		}
		certifiedT2 := false
		certifiedT3 := false
		for _, c := range an.Certificates {
			if c.Theorem == Theorem2 {
				certifiedT2 = true
			}
			if c.Theorem == Theorem3 {
				certifiedT3 = true
			}
		}
		if certifiedT2 && noCP.Cost(ev) > s.Cost(ev) {
			t.Fatalf("trial %d: rewrite raised τ despite C1∧C2", trial)
		}
		if db.Connected() && !noCP.UsesCartesian(db.Graph()) {
			lin := LinearizeRewrite(ev, noCP)
			if !lin.IsLinear() || lin.UsesCartesian(db.Graph()) {
				t.Fatalf("trial %d: LinearizeRewrite missed the subspace", trial)
			}
			if certifiedT3 && lin.Cost(ev) > noCP.Cost(ev) {
				t.Fatalf("trial %d: linearization raised τ despite C3", trial)
			}
		}

		// Reducer invariants where applicable.
		if red, err := semijoin.FullReduce(db, nil, nil); err == nil {
			reduced := red.Database
			if !semijoin.PairwiseConsistent(reduced) {
				t.Fatalf("trial %d: reduction inconsistent", trial)
			}
			before := ev.Result()
			after := database.NewEvaluator(reduced).Result()
			if !before.Equal(after) {
				t.Fatalf("trial %d: reduction changed R_D", trial)
			}
		}
	}
}

func soakDatabase(rng *rand.Rand, trial int) *database.Database {
	n := 3 + rng.Intn(3)
	switch trial % 5 {
	case 0:
		return gen.Uniform(rng, gen.Schemes(gen.Chain, n), 4, 3)
	case 1:
		return gen.Diagonal(rng, gen.RandomConnectedSchemes(rng, n, 0.3), 7, 0.5)
	case 2:
		return gen.Zipf(rng, gen.Schemes(gen.Star, n), 6, 6, 1.5)
	case 3:
		return gen.Uniform(rng, gen.RandomAcyclicSchemes(rng, n), 4, 3)
	default:
		return gen.Uniform(rng, gen.Schemes(gen.Cycle, max(n, 3)), 4, 3)
	}
}

func randomSoakStrategy(rng *rand.Rand, db *database.Database) *strategy.Node {
	idx := rng.Perm(db.Len())
	var build func(part []int) *strategy.Node
	build = func(part []int) *strategy.Node {
		if len(part) == 1 {
			return strategy.Leaf(part[0])
		}
		cut := 1 + rng.Intn(len(part)-1)
		return strategy.Combine(build(part[:cut]), build(part[cut:]))
	}
	return build(idx)
}
