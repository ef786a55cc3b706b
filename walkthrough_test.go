package multijoin_test

import (
	"math/rand"
	"testing"

	"multijoin"
	"multijoin/internal/conditions"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/setops"
	"multijoin/internal/strategy"
)

// TestPaperWalkthrough replays the paper's argument front to back as one
// integration test — each subtest is a section of the paper, asserted
// against the library. It is the executable version of reading the
// paper, and the broadest end-to-end net in the suite.
func TestPaperWalkthrough(t *testing.T) {
	t.Run("S1_fifteen_orderings", func(t *testing.T) {
		// "there are 3 orderings … and 12 orderings … Among these 15
		// possible orderings which is optimum?"
		if multijoin.CountStrategies(4).Int64() != 15 {
			t.Fatal("the paper's 15 orderings")
		}
	})

	t.Run("S2_model", func(t *testing.T) {
		// Strategies evaluate to the same result in any order; τ sums the
		// steps; a strategy for k relations has k−1 steps.
		db := multijoin.ExampleDatabase(1)
		ev := multijoin.NewEvaluator(db)
		var first *multijoin.Relation
		multijoin.EnumerateStrategies(db.All(), func(s *multijoin.Strategy) bool {
			if s.StepCount() != db.Len()-1 {
				t.Fatalf("steps = %d", s.StepCount())
			}
			if first == nil {
				first = ev.Eval(s.Set())
			}
			return true
		})
		if first == nil || first.Size() != 490 {
			t.Fatal("R_D for Example 1 has 490 tuples")
		}
	})

	t.Run("S3_example1_C1_insufficient", func(t *testing.T) {
		// C1 holds yet the optimum uses a Cartesian product.
		db := multijoin.ExampleDatabase(1)
		ev := multijoin.NewEvaluator(db)
		if !multijoin.CheckCondition(ev, multijoin.C1).Holds {
			t.Fatal("C1 holds on Example 1")
		}
		best, err := multijoin.Optimize(ev, multijoin.SpaceAll)
		if err != nil {
			t.Fatal(err)
		}
		if best.Cost != 546 || !best.Strategy.UsesCartesian(db.Graph()) {
			t.Fatal("optimum is S4 at 546 with a Cartesian product")
		}
	})

	t.Run("S3_theorems_certify", func(t *testing.T) {
		// A database satisfying C3 gets all three certificates and every
		// optimum coincides across the certified subspaces.
		rng := rand.New(rand.NewSource(99))
		db := multijoin.GenerateDiagonal(rng,
			multijoin.GenerateSchemes(multijoin.ShapeChain, 5), 8, 0.6)
		an, err := multijoin.Analyze(multijoin.NewEvaluator(db))
		if err != nil {
			t.Fatal(err)
		}
		if len(an.Certificates) == 0 {
			t.Fatal("C3 data should certify")
		}
		if err := multijoin.VerifyCertificates(an); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("S3_proof_transformations", func(t *testing.T) {
		// The pluck/graft machinery the proofs run on: Figure 3's Case 1
		// transform on a concrete linear CP-using strategy.
		db := multijoin.ExampleDatabase(1)
		ev := multijoin.NewEvaluator(db)
		s, err := multijoin.ParseStrategy(db, "(R1 R3) R2 R4")
		if err != nil {
			t.Fatal(err)
		}
		rewritten := multijoin.AvoidCPRewrite(ev, s)
		if !rewritten.AvoidsCartesian(db.Graph()) {
			t.Fatal("Lemmas 2–4 must land in the CP-avoiding subspace")
		}
	})

	t.Run("S4_necessity_examples", func(t *testing.T) {
		// Examples 3–5: each theorem's condition cannot be weakened.
		for _, tc := range []struct {
			example int
			cond    multijoin.Condition
			verify  func(*database.Evaluator) error
		}{
			{3, multijoin.C1Strict, core.VerifyTheorem1Exhaustive},
			{4, multijoin.C1, core.VerifyTheorem2Exhaustive},
			{5, multijoin.C3, core.VerifyTheorem3Exhaustive},
		} {
			db := multijoin.ExampleDatabase(tc.example)
			ev := multijoin.NewEvaluator(db)
			if conditions.Check(ev, tc.cond).Holds {
				t.Fatalf("example %d should violate %s", tc.example, tc.cond)
			}
			if tc.verify(ev) == nil {
				t.Fatalf("example %d: the theorem's conclusion should fail", tc.example)
			}
		}
	})

	t.Run("S4_superkeys_imply_C3", func(t *testing.T) {
		rng := rand.New(rand.NewSource(100))
		db := multijoin.GenerateDiagonal(rng,
			multijoin.GenerateSchemes(multijoin.ShapeStar, 4), 7, 0.5)
		ev := multijoin.NewEvaluator(db)
		if !multijoin.CheckCondition(ev, multijoin.C3).Holds {
			t.Fatal("superkey joins must satisfy C3 (§4)")
		}
	})

	t.Run("S5_acyclicity_and_reduction", func(t *testing.T) {
		db := multijoin.NewDatabase(
			multijoin.RelationFromStrings("R1", "AB", "1 x", "2 y", "3 z"),
			multijoin.RelationFromStrings("R2", "BC", "x 7", "y 8"),
			multijoin.RelationFromStrings("R3", "CD", "7 p"),
		)
		if !db.Graph().AlphaAcyclic() || !db.Graph().GammaAcyclic() {
			t.Fatal("chains are acyclic at every degree")
		}
		red, err := multijoin.FullReduce(db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reduced := red.Database
		if !multijoin.PairwiseConsistent(reduced) {
			t.Fatal("reduction yields pairwise consistency")
		}
		ev := multijoin.NewEvaluator(reduced)
		if !conditions.Check(ev, multijoin.C4).Holds {
			t.Fatal("§5: acyclic + consistent ⟹ C4")
		}
	})

	t.Run("S5_intersections_inherit_theorem3", func(t *testing.T) {
		sets := []*multijoin.Relation{
			multijoin.RelationFromStrings("A", "X", "1", "2", "3", "4"),
			multijoin.RelationFromStrings("B", "X", "2", "3", "4", "5"),
			multijoin.RelationFromStrings("C", "X", "3", "4"),
			multijoin.RelationFromStrings("D", "X", "1", "3", "4", "6"),
		}
		e := setops.NewEvaluator(setops.Intersection, sets...)
		_, bestAll := e.OptimizeAll()
		_, bestLin := e.OptimizeLinear()
		if bestAll != bestLin {
			t.Fatal("Theorem 3 applied to ∩: linear must match overall")
		}
	})

	t.Run("S5_linearization_executes_lemma6", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		db := multijoin.GenerateDiagonal(rng,
			multijoin.GenerateSchemes(multijoin.ShapeChain, 5), 8, 0.6)
		ev := multijoin.NewEvaluator(db)
		g := db.Graph()
		strategy.EnumerateConnected(g, db.All(), func(n *strategy.Node) bool {
			lin := multijoin.LinearizeRewrite(ev, n)
			if !lin.IsLinear() || lin.Cost(ev) > n.Cost(ev) {
				t.Fatalf("Lemma 6 violated on %s", n.Render(db))
			}
			return true
		})
	})
}
