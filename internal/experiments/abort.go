package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/database"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// E-abort quantifies the Section 3 remark behind the standing hypothesis
// R_D ≠ ∅: "if R_D = ∅, then the evaluation of the database can be
// abandoned as soon as an intermediate relation state is null." On
// empty-result workloads the experiment measures, per strategy, the τ an
// abort-aware executor actually pays versus the strategy's full τ —
// showing both why the theorems exclude the empty case (order hardly
// matters once you abandon) and how large the abandoned remainder is.

func init() {
	register(Info{ID: "E-abort", Paper: "Section 3 remark: abandon on a null intermediate", Run: runAbort})
}

// emptyResultDB builds a chain whose final result is empty: one link in
// the middle shares no values.
func emptyResultDB(rng *rand.Rand, n int) *database.Database {
	rels := make([]*relation.Relation, n)
	for i := 0; i < n; i++ {
		a := relation.Attr(fmt.Sprintf("A%d", i))
		b := relation.Attr(fmt.Sprintf("A%d", i+1))
		r := relation.New(fmt.Sprintf("R%d", i), relation.NewSchema(a, b))
		for k := 0; k < 5; k++ {
			left := fmt.Sprintf("v%d", rng.Intn(4))
			right := fmt.Sprintf("v%d", rng.Intn(4))
			if i == n/2 {
				// The broken link: right-side values from a disjoint pool.
				right = fmt.Sprintf("w%d", rng.Intn(4))
			}
			if i == n/2+1 {
				left = fmt.Sprintf("x%d", rng.Intn(4))
			}
			r.Insert(relation.Tuple{a: relation.Value(left), b: relation.Value(right)})
		}
		rels[i] = r
	}
	return database.New(rels...)
}

func runAbort(w io.Writer) Summary {
	var e expect
	header(w, "E-abort", "abandoning on the first null intermediate (the R_D = ∅ case)")
	rng := rand.New(rand.NewSource(118))
	tw := table(w)
	fmt.Fprintln(tw, "n\ttrials\tmean paid/full τ\tbest-case paid\tworst-case paid\tmean steps skipped")
	for _, n := range []int{4, 5, 6} {
		trials := 0
		ratioSum, skippedSum := 0.0, 0.0
		bestPaid, worstPaid := 1<<30, 0
		for t := 0; t < 25; t++ {
			db := emptyResultDB(rng, n)
			ev := database.NewEvaluator(db)
			if ev.ResultNonEmpty() {
				continue
			}
			trials++
			strategy.EnumerateAll(db.All(), func(s *strategy.Node) bool {
				full := s.Cost(ev)
				res := strategy.EvaluateWithAbort(ev, s)
				e.that(res.Aborted)
				e.that(res.CostPaid <= full)
				if full > 0 {
					ratioSum += float64(res.CostPaid) / float64(full)
				} else {
					ratioSum += 1
				}
				skippedSum += float64(s.StepCount() - res.StepsRun)
				if res.CostPaid < bestPaid {
					bestPaid = res.CostPaid
				}
				if res.CostPaid > worstPaid {
					worstPaid = res.CostPaid
				}
				return true
			})
			// Normalize sums per strategy count below.
		}
		if trials == 0 {
			continue
		}
		strategies := float64(trials) * countAllFloat(n)
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%d\t%d\t%.2f\n",
			n, trials, ratioSum/strategies, bestPaid, worstPaid, skippedSum/strategies)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: with R_D = ∅ evaluation abandons early — the τ at stake shrinks toward the")
	fmt.Fprintln(w, "tuples generated before the first null, which is why the theorems assume R_D ≠ ∅")
	return e.summary("abort-aware evaluation never pays more than τ(S); savings measured")
}
