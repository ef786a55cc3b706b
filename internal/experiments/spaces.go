package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/optimizer"
	"multijoin/internal/strategy"
)

// The E-intro, E-space and E-gamma experiments reproduce the paper's
// framing numbers: the sizes of the strategy subspaces (the introduction's
// "3 + 12 = 15 orderings" for four relations), the effort each optimizer
// spends, and the motivating observation (via Graefe's GAMMA experiments,
// citation [9]) that the cheapest linear strategy can be significantly
// more expensive than the cheapest bushy one — unless the paper's
// conditions hold, in which case the gap is provably zero.

func init() {
	register(Info{ID: "E-intro", Paper: "Section 1: strategy-space sizes", Run: runIntro})
	register(Info{ID: "E-space", Paper: "optimizer effort per subspace", Run: runSpace})
	register(Info{ID: "E-gamma", Paper: "Section 1 motivation [9]: linear vs bushy gap", Run: runGamma})
}

func runIntro(w io.Writer) Summary {
	header(w, "E-intro", "strategy-space sizes: all = (2n−3)!!, linear = n!/2, CP-free per shape")
	var e expect

	// The paper's own instance: n = 4 has 3 bushy-split + 12 linear = 15.
	bushy, linear := 0, 0
	strategy.EnumerateAll(hypergraph.Full(4), func(s *strategy.Node) bool {
		if s.IsLinear() {
			linear++
		} else {
			bushy++
		}
		return true
	})
	fmt.Fprintf(w, "n=4: %d orderings of the form (R1⋈R2)⋈(R3⋈R4), %d of the form ((R1⋈R2)⋈R3)⋈R4, %d total (paper: 3, 12, 15)\n",
		bushy, linear, bushy+linear)
	e.that(bushy == 3 && linear == 12)

	tw := table(w)
	fmt.Fprintln(tw, "n\tall (2n−3)!!\tlinear n!/2\tCP-free chain\tlinear CP-free chain\tCP-free star\tCP-free clique")
	for n := 2; n <= 10; n++ {
		chain := gen.Schemes(gen.Chain, n)
		star := gen.Schemes(gen.Star, n)
		clique := gen.Schemes(gen.Clique, n)
		gChain := hypergraph.New(chain)
		gStar := hypergraph.New(star)
		gClique := hypergraph.New(clique)
		all := strategy.CountAll(n)
		lin := strategy.CountLinear(n)
		cChain := strategy.CountConnected(gChain, gChain.All())
		lChain := strategy.CountLinearConnected(gChain, gChain.All())
		cStar := strategy.CountConnected(gStar, gStar.All())
		cClique := strategy.CountConnected(gClique, gClique.All())
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n", n, all, lin, cChain, lChain, cStar, cClique)
		// Sanity: clique has no unlinked pairs, so its CP-free count
		// equals the full count; star likewise (hub links everything).
		e.that(cClique.Cmp(all) == 0)
		e.that(cStar.Cmp(all) == 0)
		e.that(cChain.Cmp(all) <= 0)
	}
	tw.Flush()
	fmt.Fprintln(w, "CP-free chain counts are the Catalan numbers C(n−1); clique/star restrictions are vacuous")
	return e.summary("subspace sizes reproduced, incl. the paper's 15 for n=4")
}

func runSpace(w io.Writer) Summary {
	header(w, "E-space", "optimizer effort: DP states per subspace vs brute-force space size")
	var e expect
	rng := rand.New(rand.NewSource(107))
	tw := table(w)
	fmt.Fprintln(tw, "n\tspace size (all)\tDP states all\tDP states linear\tDP states no-CP\tgreedy joins")
	for n := 3; n <= 10; n++ {
		db := gen.Uniform(rng, gen.Schemes(gen.Chain, n), 3, 3)
		ev := database.NewEvaluator(db)
		all, err := optimizer.Optimize(ev, optimizer.SpaceAll)
		if err != nil {
			return Summary{Note: err.Error()}
		}
		lin, _ := optimizer.Optimize(ev, optimizer.SpaceLinear)
		nocp, _ := optimizer.Optimize(ev, optimizer.SpaceNoCP)
		greedy, _ := optimizer.Greedy(ev)
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\n",
			n, strategy.CountAll(n), all.States, lin.States, nocp.States, greedy.States)
		// DP states are bounded by 2^n while the space is (2n−3)!!.
		e.that(all.States < 1<<n)
		e.that(all.Cost <= lin.Cost && all.Cost <= nocp.Cost)
	}
	tw.Flush()
	fmt.Fprintln(w, "the DPs explore exponentially fewer states than the spaces they optimize over")
	return e.summary("optimizer effort scaling")
}

func runGamma(w io.Writer) Summary {
	header(w, "E-gamma", "best-linear vs best-bushy τ: the gap the restrictions risk")
	var e expect
	rng := rand.New(rand.NewSource(108))
	tw := table(w)
	fmt.Fprintln(tw, "n\tworkload\ttrials\tmean ratio\tmax ratio\ttrials with gap")
	for _, n := range []int{4, 5, 6, 7, 8} {
		for _, workload := range []string{"skewed", "superkey (C3)"} {
			trials, gapTrials := 0, 0
			sumRatio, maxRatio := 0.0, 0.0
			for t := 0; t < 25; t++ {
				var db *database.Database
				if workload == "skewed" {
					db = gen.Zipf(rng, gen.Schemes(gen.Chain, n), 8, 4, 1.4)
				} else {
					db = gen.Diagonal(rng, gen.Schemes(gen.Chain, n), 8, 0.6)
				}
				ev := database.NewEvaluator(db)
				all, err := optimizer.Optimize(ev, optimizer.SpaceAll)
				if err != nil || all.Cost == 0 {
					continue
				}
				lin, err := optimizer.Optimize(ev, optimizer.SpaceLinear)
				if err != nil {
					continue
				}
				trials++
				ratio := float64(lin.Cost) / float64(all.Cost)
				sumRatio += ratio
				if ratio > maxRatio {
					maxRatio = ratio
				}
				if lin.Cost > all.Cost {
					gapTrials++
				}
				if workload == "superkey (C3)" {
					// Theorem 3 pins the ratio to 1 when C3 holds.
					if conditions.Check(ev, conditions.C3).Holds {
						e.that(lin.Cost == all.Cost)
					}
				}
			}
			if trials == 0 {
				continue
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%.3f\t%.3f\t%d\n",
				n, workload, trials, sumRatio/float64(trials), maxRatio, gapTrials)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "paper/[9]: linear-only search can be significantly worse; under C3 the gap is provably 0")
	return e.summary("linear/bushy gap measured; zero under C3 as Theorem 3 requires")
}
