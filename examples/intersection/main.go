// Intersection: the Section 5 coda. Computing X1 ∩ X2 ∩ … ∩ Xn is a
// degenerate multiple join (every pair of "schemes" is linked and ⋈ = ∩
// satisfies C3 automatically), so by Theorem 3 a τ-optimal *linear*
// intersection order always exists — this example finds it, compares it
// with the best bushy plan and with the ascending-size heuristic, and
// also shows the Yannakakis-style acyclic evaluation from the same
// section.
//
// Run with:
//
//	go run ./examples/intersection
package main

import (
	"fmt"
	"log"
	"math/rand"

	"multijoin"
	"multijoin/internal/setops"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	schema := multijoin.SchemaFromString("X")

	// Tag sets of four users; we want members of all four.
	sets := make([]*multijoin.Relation, 4)
	for i := range sets {
		r := multijoin.NewRelation(fmt.Sprintf("user%d", i), schema)
		for k := 0; k < 6+rng.Intn(6); k++ {
			r.Insert(multijoin.Tuple{"X": multijoin.Value(fmt.Sprintf("tag%d", rng.Intn(10)))})
		}
		sets[i] = r
		fmt.Printf("user%d has %d tags\n", i, r.Size())
	}
	fmt.Printf("common tags: %d\n\n", multijoin.IntersectAll(sets...).Size())

	e := setops.NewEvaluator(setops.Intersection, sets...)
	bushyTree, bushyCost := e.OptimizeAll()
	linTree, linCost := e.OptimizeLinear()
	sortedTree, sortedCost := e.SortedLinear()
	fmt.Printf("best strategy overall:    τ=%-4d %s\n", bushyCost, bushyTree)
	fmt.Printf("best linear strategy:     τ=%-4d %s\n", linCost, linTree)
	fmt.Printf("ascending-size heuristic: τ=%-4d %s\n", sortedCost, sortedTree)
	if linCost != bushyCost {
		log.Fatal("linear optimum missed the overall optimum — this would falsify Theorem 3 for ∩")
	}
	fmt.Println("linear = overall, exactly as Theorem 3 applied to ∩ guarantees ✓")

	// Section 5's other substrate: acyclic joins evaluated Yannakakis-
	// style stay bounded by the output.
	fmt.Println()
	chain := multijoin.NewDatabase(
		multijoin.RelationFromStrings("AB", "AB", "1 x", "2 y", "3 z"),
		multijoin.RelationFromStrings("BC", "BC", "x 7", "y 8", "q 9"),
		multijoin.RelationFromStrings("CD", "CD", "7 p", "8 p", "0 r"),
	)
	y, err := multijoin.Yannakakis(chain, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Yannakakis on a chain: output τ=%d, intermediate sizes %v (all ≤ output)\n",
		y.Result.Size(), y.JoinSizes)
}
