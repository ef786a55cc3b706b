package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/setops"
)

// The E-intersect and E-yannakakis experiments exercise the Section 5
// extensions: τ-optimal strategies for intersections (Theorem 3 applied
// to ⋈ = ∩) and Yannakakis-style evaluation of acyclic joins after full
// reduction.

func init() {
	register(Info{ID: "E-intersect", Paper: "Section 5: τ-optimal linear intersection strategies", Run: runIntersect})
	register(Info{ID: "E-yannakakis", Paper: "Section 5: Yannakakis evaluation after full reduction", Run: runYannakakis})
}

func runIntersect(w io.Writer) Summary {
	header(w, "E-intersect", "⋈ = ∩ satisfies C3 ⟹ a τ-optimal linear order exists (Theorem 3)")
	var e expect
	rng := rand.New(rand.NewSource(109))
	tw := table(w)
	fmt.Fprintln(tw, "k sets\ttrials\tlinear = overall optimum\tsorted heuristic optimal\tmean sorted/optimal")
	for _, k := range []int{3, 4, 5, 6} {
		trials, linOptimal, sortedOptimal := 0, 0, 0
		ratioSum := 0.0
		for t := 0; t < 40; t++ {
			sets := make([]*relation.Relation, k)
			sch := relation.SchemaFromString("X")
			for i := range sets {
				r := relation.New("", sch)
				rows := 1 + rng.Intn(10)
				for j := 0; j < rows; j++ {
					r.Insert(relation.Tuple{"X": relation.Value(fmt.Sprintf("v%d", rng.Intn(8)))})
				}
				sets[i] = r
			}
			ev := setops.NewEvaluator(setops.Intersection, sets...)
			_, bestAll := ev.OptimizeAll()
			_, bestLin := ev.OptimizeLinear()
			_, sortedCost := ev.SortedLinear()
			trials++
			if e.that(bestLin == bestAll) {
				linOptimal++
			}
			if sortedCost == bestAll {
				sortedOptimal++
			}
			if bestAll > 0 {
				ratioSum += float64(sortedCost) / float64(bestAll)
			} else {
				ratioSum += 1
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.3f\n", k, trials, linOptimal, sortedOptimal, ratioSum/float64(trials))
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: Theorem 3 applied to ∩ — the linear optimum always matches the overall optimum;")
	fmt.Fprintln(w, "the ascending-size heuristic is near-optimal but not a theorem")
	return e.summary("linear intersection orders are always optimal, as §5 derives")
}

func runYannakakis(w io.Writer) Summary {
	header(w, "E-yannakakis", "full reduction bounds intermediates by the output (monotone increasing)")
	var e expect
	rng := rand.New(rand.NewSource(110))
	tw := table(w)
	fmt.Fprintln(tw, "n\ttrials\tmean naive-max/output\tmean Yannakakis-max/output\tbounded by output")
	for _, n := range []int{3, 4, 5, 6} {
		trials, bounded := 0, 0
		naiveRatio, yannRatio := 0.0, 0.0
		for t := 0; t < 25; t++ {
			db := gen.Uniform(rng, gen.Schemes(gen.Chain, n), 8, 6)
			y, err := semijoin.YannakakisGuarded(db, nil, nil)
			if err != nil || y.Result.Empty() {
				continue
			}
			result, sizes := y.Result, y.JoinSizes
			ev := database.NewEvaluator(db)
			// Naive left-to-right evaluation: the intermediates are the
			// prefix joins R_{0..i}, dangling tuples included.
			naive := 0
			for i := 1; i < db.Len(); i++ {
				if sz := ev.Size(hypergraph.Full(i + 1)); sz > naive {
					naive = sz
				}
			}
			ymax := 0
			ok := true
			for _, s := range sizes {
				if s > ymax {
					ymax = s
				}
				if s > result.Size() {
					ok = false
				}
			}
			trials++
			if e.that(ok) {
				bounded++
			}
			naiveRatio += float64(naive) / float64(result.Size())
			yannRatio += float64(ymax) / float64(result.Size())
			// Yannakakis must agree with the naive evaluation.
			e.that(result.Equal(ev.Result()))
		}
		if trials == 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\t%d/%d\n",
			n, trials, naiveRatio/float64(trials), yannRatio/float64(trials), bounded, trials)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: §5 — after full reduction every intermediate extends to the result,")
	fmt.Fprintln(w, "so evaluation is monotone increasing and bounded by τ(R_D)")
	return e.summary("Yannakakis intermediates bounded by the output on every trial")
}
