package multijoin_test

import (
	"fmt"

	"multijoin"
)

// The paper's Example 1, end to end: τ values of the named strategies
// and the observation that the optimum uses a Cartesian product.
func Example() {
	db := multijoin.ExampleDatabase(1)
	ev := multijoin.NewEvaluator(db)

	s3, _ := multijoin.ParseStrategy(db, "(R1 R2) (R3 R4)")
	s4, _ := multijoin.ParseStrategy(db, "(R1 R3) (R2 R4)")
	fmt.Println("τ(S3) =", s3.Cost(ev))
	fmt.Println("τ(S4) =", s4.Cost(ev))
	fmt.Println("S4 uses a Cartesian product:", s4.UsesCartesian(db.Graph()))
	// Output:
	// τ(S3) = 549
	// τ(S4) = 546
	// S4 uses a Cartesian product: true
}

func ExampleOptimize() {
	db := multijoin.ExampleDatabase(5)
	ev := multijoin.NewEvaluator(db)
	res, _ := multijoin.Optimize(ev, multijoin.SpaceAll)
	fmt.Printf("τ=%d %s\n", res.Cost, res.Strategy.Render(db))
	lin, _ := multijoin.Optimize(ev, multijoin.SpaceLinearNoCP)
	fmt.Printf("best linear without Cartesian products: τ=%d\n", lin.Cost)
	// Output:
	// τ=11 ((MS⋈SC)⋈(CI⋈ID))
	// best linear without Cartesian products: τ=12
}

func ExampleAnalyze() {
	db := multijoin.ExampleDatabase(3)
	an, _ := multijoin.Analyze(multijoin.NewEvaluator(db))
	for _, rep := range an.Profile.Reports {
		if rep.Cond == multijoin.C1 || rep.Cond == multijoin.C1Strict {
			fmt.Printf("%s holds: %v\n", rep.Cond, rep.Holds)
		}
	}
	// C1 holds but C1′ does not, so Theorem 1 issues no certificate and
	// indeed a τ-optimum linear strategy uses a Cartesian product.
	for _, c := range an.Certificates {
		fmt.Println("certificate:", c.Theorem)
	}
	// Output:
	// C1 holds: true
	// C1' holds: false
	// certificate: 2
}

func ExampleCheckCondition() {
	db := multijoin.ExampleDatabase(2)
	ev := multijoin.NewEvaluator(db)
	rep := multijoin.CheckCondition(ev, multijoin.C1)
	fmt.Println("C1 holds:", rep.Holds)
	fmt.Println("witness:", rep.Witness.Left, ">", rep.Witness.Right)
	// Output:
	// C1 holds: false
	// witness: 7 > 6
}

func ExampleCountStrategies() {
	// The paper's introduction: 3 + 12 = 15 orderings for four relations.
	fmt.Println(multijoin.CountStrategies(4))
	fmt.Println(multijoin.CountLinearStrategies(4))
	// Output:
	// 15
	// 12
}

func ExampleTraceEvaluation() {
	db := multijoin.NewDatabase(
		multijoin.RelationFromStrings("R", "AB", "1 x", "2 y"),
		multijoin.RelationFromStrings("S", "BC", "x 7", "x 8"),
	)
	ev := multijoin.NewEvaluator(db)
	s, _ := multijoin.ParseStrategy(db, "R S")
	tr := multijoin.TraceEvaluation(ev, s)
	fmt.Println(tr)
	// Output:
	// step 1: R⋈S                                      2 ⋈ 2 → 2
	// τ(S) = 2
}

func ExampleLosslessJoin() {
	schemes := []multijoin.Schema{
		multijoin.SchemaFromString("AB"),
		multijoin.SchemaFromString("BC"),
	}
	f, _ := multijoin.ParseFD("B->C")
	fmt.Println(multijoin.LosslessJoin(schemes, []multijoin.FD{f}))
	fmt.Println(multijoin.LosslessJoin(schemes, nil))
	// Output:
	// true
	// false
}

func ExampleFullReduce() {
	db := multijoin.NewDatabase(
		multijoin.RelationFromStrings("R", "AB", "1 x", "2 y", "3 z"),
		multijoin.RelationFromStrings("S", "BC", "x 7", "y 8"),
	)
	red, _ := multijoin.FullReduce(db, nil, nil)
	fmt.Println("R shrank to", red.Database.Relation(0).Size(), "tuples")
	fmt.Println("pairwise consistent:", multijoin.PairwiseConsistent(red.Database))
	// Output:
	// R shrank to 2 tuples
	// pairwise consistent: true
}

func ExampleLinearizeRewrite() {
	// Under C3 (superkey joins), any Cartesian-product-free strategy
	// flattens to a linear one at no τ cost — Lemma 6, executed.
	db := multijoin.NewDatabase(
		multijoin.RelationFromStrings("R1", "AB", "1 1", "2 2"),
		multijoin.RelationFromStrings("R2", "BC", "1 1", "2 2", "3 3"),
		multijoin.RelationFromStrings("R3", "CD", "1 1", "3 3"),
		multijoin.RelationFromStrings("R4", "DE", "1 1", "3 3", "4 4"),
	)
	ev := multijoin.NewEvaluator(db)
	bushy, _ := multijoin.ParseStrategy(db, "(R1 R2) (R3 R4)")
	linear := multijoin.LinearizeRewrite(ev, bushy)
	fmt.Println("linear:", linear.IsLinear())
	fmt.Println("τ before:", bushy.Cost(ev), " after:", linear.Cost(ev))
	// Output:
	// linear: true
	// τ before: 5  after: 4
}
