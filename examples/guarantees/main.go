// Guarantees: generates databases whose joins are all on superkeys (the
// Section 4 route to condition C3), watches the theorems certify that a
// System R-style optimizer — linear strategies, no Cartesian products —
// is lossless, and contrasts with skewed data where the same restriction
// forfeits the optimum. It also exercises the constructive rewrites
// extracted from the proofs: any strategy is pushed into the certified
// subspace without its τ ever increasing.
//
// Run with:
//
//	go run ./examples/guarantees
package main

import (
	"fmt"
	"log"
	"math/rand"

	"multijoin"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	schemes := multijoin.GenerateSchemes(multijoin.ShapeChain, 5)

	fmt.Println("— superkey-join data (C3 holds by Section 4) —")
	keyed := multijoin.GenerateDiagonal(rng, schemes, 9, 0.6)
	report(keyed)

	fmt.Println("\n— Zipf-skewed many-to-many data (conditions fail) —")
	skewed := multijoin.GenerateZipf(rng, schemes, 10, 4, 1.4)
	report(skewed)

	fmt.Println("\n— constructive rewrites (the proofs of Theorems 2 and 3, executed) —")
	ev := multijoin.NewEvaluator(keyed)
	// Start from a deliberately bad bushy strategy full of Cartesian
	// products.
	bad := multijoin.Combine(
		multijoin.Combine(multijoin.Leaf(0), multijoin.Leaf(3)),
		multijoin.Combine(multijoin.Combine(multijoin.Leaf(1), multijoin.Leaf(4)), multijoin.Leaf(2)))
	fmt.Printf("start:      τ=%-6d %s\n", bad.Cost(ev), bad.Render(keyed))
	noCP := multijoin.AvoidCPRewrite(ev, bad)
	fmt.Printf("Lemmas 2-4: τ=%-6d %s (no Cartesian products)\n", noCP.Cost(ev), noCP.Render(keyed))
	linear := multijoin.LinearizeRewrite(ev, noCP)
	fmt.Printf("Lemma 6:    τ=%-6d %s (linear)\n", linear.Cost(ev), linear.Render(keyed))
	if linear.Cost(ev) > bad.Cost(ev) {
		log.Fatal("rewrites increased τ despite C3 — this would falsify the lemmas")
	}
	fmt.Println("τ never increased, as Lemmas 2-4 and 6 guarantee under C1∧C2 and C3 ✓")
}

func report(db *multijoin.Database) {
	an, err := multijoin.Analyze(multijoin.NewEvaluator(db))
	if err != nil {
		log.Fatal(err)
	}
	held := ""
	for _, rep := range an.Profile.Reports {
		if rep.Holds {
			held += " " + rep.Cond.String()
		}
	}
	fmt.Printf("conditions holding:%s\n", held)
	all, _ := an.Result(multijoin.SpaceAll)
	lnc, ok := an.Result(multijoin.SpaceLinearNoCP)
	fmt.Printf("global optimum:        τ=%-6d %s\n", all.Cost, all.Strategy.Render(db))
	if ok {
		gap := float64(lnc.Cost) / float64(all.Cost)
		fmt.Printf("System R space optimum: τ=%-6d (%.2f× the optimum)\n", lnc.Cost, gap)
	}
	if len(an.Certificates) == 0 {
		fmt.Println("no certificate: restricting the search may forfeit the optimum (and above, it did or could)")
	}
	for _, c := range an.Certificates {
		fmt.Printf("Theorem %d: restricting to %s is provably safe\n", int(c.Theorem), c.Space)
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		log.Fatal(err)
	}
}
