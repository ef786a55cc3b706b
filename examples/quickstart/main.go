// Quickstart: build a small database, cost a few join strategies by
// hand, then let the library find τ-optimum strategies in each search
// subspace and certify — via the paper's theorems — which subspace
// restrictions were safe.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"multijoin"
)

func main() {
	// A three-relation chain supplier→part→project→department, with
	// dangling tuples sprinkled in.
	sp := multijoin.NewRelation("SP", multijoin.NewSchema("Supplier", "Part"))
	for _, row := range [][2]string{{"s1", "p1"}, {"s1", "p2"}, {"s2", "p1"}, {"s3", "p3"}} {
		sp.Insert(multijoin.Tuple{"Supplier": multijoin.Value(row[0]), "Part": multijoin.Value(row[1])})
	}
	pj := multijoin.NewRelation("PJ", multijoin.NewSchema("Part", "Project"))
	for _, row := range [][2]string{{"p1", "j1"}, {"p2", "j1"}, {"p2", "j2"}, {"p9", "j3"}} {
		pj.Insert(multijoin.Tuple{"Part": multijoin.Value(row[0]), "Project": multijoin.Value(row[1])})
	}
	jd := multijoin.NewRelation("JD", multijoin.NewSchema("Project", "Dept"))
	for _, row := range [][2]string{{"j1", "d1"}, {"j2", "d2"}, {"j3", "d3"}} {
		jd.Insert(multijoin.Tuple{"Project": multijoin.Value(row[0]), "Dept": multijoin.Value(row[1])})
	}
	db := multijoin.NewDatabase(sp, pj, jd)
	ev := multijoin.NewEvaluator(db)

	// Cost two hand-built strategies. τ counts every tuple a strategy
	// generates, intermediates and final result alike.
	leftDeep := multijoin.LeftDeep(0, 1, 2) // (SP⋈PJ)⋈JD
	rightDeep := multijoin.Combine(multijoin.Leaf(0),
		multijoin.Combine(multijoin.Leaf(1), multijoin.Leaf(2))) // SP⋈(PJ⋈JD)
	fmt.Printf("τ((SP⋈PJ)⋈JD) = %d\n", leftDeep.Cost(ev))
	fmt.Printf("τ(SP⋈(PJ⋈JD)) = %d\n", rightDeep.Cost(ev))

	// Which of the paper's conditions hold here?
	for _, rep := range multijoin.CheckAllConditions(ev) {
		status := "holds"
		if !rep.Holds {
			status = "violated"
		}
		fmt.Printf("condition %-3s %s\n", rep.Cond, status)
	}

	// Optimize within each searched subspace.
	for _, space := range []multijoin.SearchSpace{
		multijoin.SpaceAll, multijoin.SpaceNoCP,
		multijoin.SpaceLinear, multijoin.SpaceLinearNoCP,
	} {
		res, err := multijoin.Optimize(ev, space)
		if err != nil {
			log.Fatalf("optimize %s: %v", space, err)
		}
		fmt.Printf("%-20s τ=%-4d %s\n", space, res.Cost, res.Strategy.Render(db))
	}

	// Ask the Analyzer which restrictions the theorems certify as safe,
	// and double-check the certificates against the measured optima.
	an, err := multijoin.Analyze(ev)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range an.Certificates {
		fmt.Printf("Theorem %d certifies the %s space: %s\n", int(c.Theorem), c.Space, c.Guarantee)
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		log.Fatal(err)
	}
	fmt.Println("certificates verified ✓")
}
