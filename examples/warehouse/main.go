// Warehouse: a star schema with primary-key/foreign-key joins — the
// everyday case the paper's Section 4 machinery explains. Each dimension
// is joined on its key, so every fact⋈dimension result is bounded by the
// fact side (the C2 inequality); dimensions are pairwise unlinked, so
// joining them directly is a Cartesian product. The Analyzer derives
// from this that the INGRES-style restriction (avoid Cartesian products)
// is provably safe here, while nothing guarantees linear-only search —
// and FD reasoning certifies the same conclusion symbolically.
//
// Run with:
//
//	go run ./examples/warehouse
package main

import (
	"fmt"
	"log"

	"multijoin"
)

func main() {
	// Fact table: orders referencing customers and products.
	orders := multijoin.NewRelation("Orders", multijoin.NewSchema("Order", "Cust", "Prod"))
	for _, row := range [][3]string{
		{"o1", "c1", "p1"}, {"o2", "c1", "p2"}, {"o3", "c2", "p1"},
		{"o4", "c2", "p3"}, {"o5", "c3", "p2"}, {"o6", "c1", "p1"},
	} {
		orders.Insert(multijoin.Tuple{
			"Order": multijoin.Value(row[0]),
			"Cust":  multijoin.Value(row[1]),
			"Prod":  multijoin.Value(row[2]),
		})
	}
	customers := multijoin.NewRelation("Customers", multijoin.NewSchema("Cust", "Region"))
	for _, row := range [][2]string{{"c1", "north"}, {"c2", "south"}, {"c3", "north"}, {"c4", "east"}} {
		customers.Insert(multijoin.Tuple{"Cust": multijoin.Value(row[0]), "Region": multijoin.Value(row[1])})
	}
	products := multijoin.NewRelation("Products", multijoin.NewSchema("Prod", "Category"))
	for _, row := range [][2]string{{"p1", "tools"}, {"p2", "toys"}, {"p3", "tools"}} {
		products.Insert(multijoin.Tuple{"Prod": multijoin.Value(row[0]), "Category": multijoin.Value(row[1])})
	}
	db := multijoin.NewDatabase(orders, customers, products)
	ev := multijoin.NewEvaluator(db)

	// The semantic constraints, as functional dependencies: each
	// dimension's key determines its tuple. (ParseFD is for single-rune
	// attributes; multi-character attributes build FDs directly.)
	fds := []multijoin.FD{
		{From: multijoin.NewSchema("Cust"), To: multijoin.NewSchema("Region")},
		{From: multijoin.NewSchema("Prod"), To: multijoin.NewSchema("Category")},
	}

	fmt.Println("PK–FK star schema: Orders(Order,Cust,Prod), Customers(Cust,Region), Products(Prod,Category)")
	fmt.Println("dimension keys are superkeys of their tables; Orders⋈dimension is bounded by |Orders|")

	an, err := multijoin.Analyze(ev)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range an.Profile.Reports {
		status := "holds"
		if !rep.Holds {
			status = "violated"
		}
		fmt.Printf("  %-3s %s\n", rep.Cond, status)
	}
	for _, c := range an.Certificates {
		fmt.Printf("Theorem %d ⟹ restricting to the %s space is safe\n", int(c.Theorem), c.Space)
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		log.Fatal(err)
	}

	// The certified search in action.
	for _, sp := range []multijoin.SearchSpace{multijoin.SpaceAll, multijoin.SpaceNoCP} {
		res, err := multijoin.Optimize(ev, sp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best in %-14s τ=%-4d %s\n", sp, res.Cost, res.Strategy.Render(db))
	}

	// Symbolic confirmation: the chase certifies that joining Orders with
	// either dimension is lossless, and a τ-optimal lossless strategy
	// exists (Section 5's lossless-strategy discussion).
	best, _ := multijoin.Optimize(ev, multijoin.SpaceAll)
	fmt.Println("optimal strategy joins on superkeys at every step (Osborn):",
		multijoin.OsbornStrategy(db, best.Strategy, fds))
	fmt.Println("optimal strategy is lossless at every step (chase):",
		multijoin.LosslessStrategy(db, best.Strategy, fds))

	// What a dimension-first plan would cost: a Cartesian product of the
	// dimensions before touching the fact table.
	bad, err := multijoin.ParseStrategy(db, "(Customers Products) Orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dimension-first plan for contrast: τ=%d (optimum %d)\n", bad.Cost(ev), best.Cost)
	fmt.Println(multijoin.TraceEvaluation(ev, bad))
}
