// University: replays the paper's Section 4 case studies (Examples 3–5)
// on their original schemas — students, games, courses, laboratories,
// majors, instructors, departments — showing how each example pinpoints
// the exact condition a query optimizer's search restriction depends on.
//
// Run with:
//
//	go run ./examples/university
package main

import (
	"fmt"
	"log"

	"multijoin"
)

func main() {
	show(3, "Do athletes avoid courses requiring laboratory work?",
		"C1 holds but C1' fails: a τ-optimum linear strategy may use a Cartesian product")
	show(4, "Same schema, different state",
		"C2 holds but C1 fails: every CP-avoiding strategy misses the optimum")
	show(5, "How is each department serving the needs of various majors?",
		"C1 and C2 hold but C3 fails: the unique optimum is bushy, beyond any linear search")
}

func show(example int, query, lesson string) {
	db := multijoin.ExampleDatabase(example)
	fmt.Printf("— Example %d: %q\n", example, query)
	fmt.Println(db)

	an, err := multijoin.Analyze(multijoin.NewEvaluator(db))
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range an.Profile.Reports {
		if rep.Holds {
			fmt.Printf("  %-3s holds\n", rep.Cond)
		} else {
			fmt.Printf("  %s\n", rep.Witness)
		}
	}
	for _, res := range an.Results {
		fmt.Printf("  best in %-20s τ=%-4d %s\n", res.Space, res.Cost, res.Strategy.Render(db))
	}
	if len(an.Certificates) == 0 {
		fmt.Println("  no theorem certificate applies")
	}
	for _, c := range an.Certificates {
		fmt.Printf("  Theorem %d certifies searching the %s space\n", int(c.Theorem), c.Space)
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lesson: %s\n\n", lesson)
}
