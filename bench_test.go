// Benchmarks: one target per table in the reproduction (see DESIGN.md's
// experiment index). Each E-* bench regenerates its table end to end, so
// `go test -bench=.` both measures the harness and re-checks every
// paper assertion (a failed assertion aborts the bench). The scaling
// benches at the bottom measure the primitive costs the tables are built
// from: joins, subset evaluation, and the four optimizer dynamic
// programs.
package multijoin_test

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"multijoin"
	"multijoin/internal/experiments"
)

// benchGuard returns a fresh resource guard with budgets far above any
// healthy iteration's spend, so the scaling benches double as regression
// tripwires: an evaluation blow-up aborts with a typed budget error
// instead of letting the bench run away. Fresh per iteration because
// budgets are cumulative.
func benchGuard() *multijoin.Guard {
	return multijoin.NewGuard(context.Background(),
		multijoin.GuardLimits{MaxTuples: 1 << 24, MaxStates: 1 << 22})
}

// runExperiment drives one registered experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	info, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sum := info.Run(io.Discard); !sum.OK {
			b.Fatalf("%s: %d/%d checks failed", id, sum.Violations, sum.Checked)
		}
	}
}

// E-intro: strategy-space sizes ((2n−3)!!, n!/2, per-shape CP-free counts).
func BenchmarkEnumerateStrategies(b *testing.B) { runExperiment(b, "E-intro") }

// E-ex1: Example 1's τ table (570/570/549 vs 546).
func BenchmarkExample1(b *testing.B) { runExperiment(b, "E-ex1") }

// E-ex2: Example 2's C1/C2 independence table.
func BenchmarkExample2(b *testing.B) { runExperiment(b, "E-ex2") }

// E-ex3: Example 3 (Theorem 1 necessity).
func BenchmarkExample3(b *testing.B) { runExperiment(b, "E-ex3") }

// E-ex4: Example 4 (Theorem 2 necessity; τ = 14/12/11).
func BenchmarkExample4(b *testing.B) { runExperiment(b, "E-ex4") }

// E-ex5: Example 5 (Theorem 3 necessity; unique bushy optimum).
func BenchmarkExample5(b *testing.B) { runExperiment(b, "E-ex5") }

// E-thm1: randomized Theorem 1 validation.
func BenchmarkTheorem1Validation(b *testing.B) { runExperiment(b, "E-thm1") }

// E-thm2: randomized Theorem 2 validation.
func BenchmarkTheorem2Validation(b *testing.B) { runExperiment(b, "E-thm2") }

// E-thm3: randomized Theorem 3 validation.
func BenchmarkTheorem3Validation(b *testing.B) { runExperiment(b, "E-thm3") }

// E-superkey: Section 4 superkey-joins ⟹ C3 table.
func BenchmarkSuperkeyApplication(b *testing.B) { runExperiment(b, "E-superkey") }

// E-lossless: Section 4 lossless-joins ⟹ C2 table (chase-driven).
func BenchmarkLosslessC2(b *testing.B) { runExperiment(b, "E-lossless") }

// E-c4: Section 5 acyclic + pairwise-consistent ⟹ C4 table.
func BenchmarkC4Acyclic(b *testing.B) { runExperiment(b, "E-c4") }

// E-intersect: Section 5 τ-optimal linear intersections.
func BenchmarkIntersection(b *testing.B) { runExperiment(b, "E-intersect") }

// E-gamma: best-linear vs best-bushy gap table.
func BenchmarkLinearVsBushyGap(b *testing.B) { runExperiment(b, "E-gamma") }

// E-space: optimizer effort per subspace table.
func BenchmarkOptimizerScaling(b *testing.B) { runExperiment(b, "E-space") }

// E-yannakakis: Section 5 reduction-bounded evaluation table.
func BenchmarkYannakakis(b *testing.B) { runExperiment(b, "E-yannakakis") }

// E-monotone: Section 5 monotone-strategy probes (claimed + open).
func BenchmarkMonotoneStrategies(b *testing.B) { runExperiment(b, "E-monotone") }

// E-union: Section 5 open question on strategies for unions.
func BenchmarkUnionStrategies(b *testing.B) { runExperiment(b, "E-union") }

// E-osborn: Section 5 lossless strategies among the τ-optima.
func BenchmarkOsbornLossless(b *testing.B) { runExperiment(b, "E-osborn") }

// E-greedy: smallest-result heuristic quality table.
func BenchmarkGreedyQuality(b *testing.B) { runExperiment(b, "E-greedy") }

// E-manyjoins: certified-subspace optimization at n = 16..60.
func BenchmarkManyJoins(b *testing.B) { runExperiment(b, "E-manyjoins") }

// E-estimate: System R estimates vs exact τ (regret + misclassification).
func BenchmarkEstimationRegret(b *testing.B) { runExperiment(b, "E-estimate") }

// --- primitive scaling benches ---

// BenchmarkNaturalJoin measures the hash join on two chain relations.
func BenchmarkNaturalJoin(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000} {
		b.Run(itoa(rows), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			schemes := multijoin.GenerateSchemes(multijoin.ShapeChain, 2)
			db := multijoin.GenerateUniform(rng, schemes, rows, rows/2+1)
			r, s := db.Relation(0), db.Relation(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				multijoin.Join(r, s)
			}
		})
	}
}

// BenchmarkSubsetEvaluator measures materializing all 2^n subset joins.
func BenchmarkSubsetEvaluator(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			db := multijoin.GenerateUniform(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, n), 8, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := multijoin.NewEvaluator(db).WithGuard(benchGuard())
				full := multijoin.Set(1)<<uint(n) - 1
				full.Subsets(func(s multijoin.Set) bool {
					ev.Size(s)
					return true
				})
			}
		})
	}
}

// BenchmarkOptimizeSpaces measures each DP on a 10-relation chain over
// superkey-join data (bounded intermediates isolate DP cost from join
// fan-out).
func BenchmarkOptimizeSpaces(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := multijoin.GenerateDiagonal(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, 10), 6, 0.4)
	spaces := map[string]multijoin.SearchSpace{
		"all":          multijoin.SpaceAll,
		"linear":       multijoin.SpaceLinear,
		"no-cp":        multijoin.SpaceNoCP,
		"linear-no-cp": multijoin.SpaceLinearNoCP,
	}
	for name, sp := range spaces {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev := multijoin.NewEvaluator(db).WithGuard(benchGuard())
				if _, err := multijoin.Optimize(ev, sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGreedyHeuristic measures the smallest-result heuristic on the
// same instance as BenchmarkOptimizeSpaces.
func BenchmarkGreedyHeuristic(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := multijoin.GenerateDiagonal(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, 10), 6, 0.4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := multijoin.NewEvaluator(db).WithGuard(benchGuard())
		if _, err := multijoin.Greedy(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConditionCheck measures the exhaustive condition checkers,
// the most subset-hungry component.
func BenchmarkConditionCheck(b *testing.B) {
	for _, n := range []int{4, 5, 6} {
		b.Run(itoa(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			db := multijoin.GenerateDiagonal(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, n), 8, 0.5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := multijoin.NewEvaluator(db)
				multijoin.CheckAllConditions(ev)
			}
		})
	}
}

// BenchmarkFullReduce measures the Bernstein–Chiu reducer.
func BenchmarkFullReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	db := multijoin.GenerateUniform(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, 8), 200, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := multijoin.FullReduce(db, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRewritePipeline measures AvoidCPRewrite + LinearizeRewrite on
// a worst-case bushy CP-heavy input over superkey data.
func BenchmarkRewritePipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	db := multijoin.GenerateDiagonal(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, 6), 9, 0.6)
	bad := multijoin.Combine(
		multijoin.Combine(multijoin.Leaf(0), multijoin.Leaf(3)),
		multijoin.Combine(
			multijoin.Combine(multijoin.Leaf(1), multijoin.Leaf(5)),
			multijoin.Combine(multijoin.Leaf(2), multijoin.Leaf(4))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev := multijoin.NewEvaluator(db)
		noCP := multijoin.AvoidCPRewrite(ev, bad)
		multijoin.LinearizeRewrite(ev, noCP)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
