package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/fd"
	"multijoin/internal/gen"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/setops"
	"multijoin/internal/strategy"
)

// Section 5 poses several open problems; these experiments probe them
// empirically, which is the honest executable counterpart of an open
// question: gather evidence, surface counterexamples if any exist in the
// sampled families.
//
//   - E-monotone: does C4 imply a τ-optimal *monotone increasing*
//     strategy exists? (and the dual: C3 gives a monotone decreasing
//     τ-optimum via Theorem 3 — verified, since the paper states it.)
//   - E-union: what can one say about τ-optimal strategies for ∪?
//   - E-osborn: when FDs imply C2, is some τ-optimal strategy lossless
//     (every step chase-certified)? The paper answers yes via Section 4;
//     we verify, and also classify the steps as Osborn/extension joins.
//   - E-greedy: how far from τ-optimal is the classic smallest-result
//     heuristic — the cheap baseline the theorems make unnecessary when
//     their conditions hold?

func init() {
	register(Info{ID: "E-monotone", Paper: "Section 5 open problem: C4 vs monotone increasing optima", Run: runMonotone})
	register(Info{ID: "E-union", Paper: "Section 5 open problem: strategies for unions", Run: runUnion})
	register(Info{ID: "E-osborn", Paper: "Section 5: lossless strategies and τ-optimality", Run: runOsborn})
	register(Info{ID: "E-greedy", Paper: "baseline: smallest-result heuristic vs τ-optimum", Run: runGreedy})
}

func runMonotone(w io.Writer) Summary {
	header(w, "E-monotone", "monotone strategies: C3 ⟹ decreasing optimum (paper); C4 vs increasing optimum (open)")
	var e expect
	rng := rand.New(rand.NewSource(111))
	tw := table(w)
	fmt.Fprintln(tw, "family\ttrials\tcondition holds\tτ-optimal monotone strategy exists")

	// Part 1 (stated in §5, derived from Theorem 3): under C3 there is a
	// linear τ-optimal strategy that is monotone decreasing.
	trials, holds, exists := 0, 0, 0
	for t := 0; t < 40; t++ {
		db := gen.Diagonal(rng, gen.Schemes(gen.Chain, 4), 7, 0.55)
		ev := database.NewEvaluator(db)
		if !ev.ResultNonEmpty() {
			continue
		}
		trials++
		if !conditions.Check(ev, conditions.C3).Holds {
			continue
		}
		holds++
		if e.that(someOptimumIs(ev, func(n *strategy.Node) bool {
			return n.MonotoneDecreasing(ev) && n.IsLinear()
		})) {
			exists++
		}
	}
	fmt.Fprintf(tw, "C3 ⟹ decreasing (claimed)\t%d\t%d\t%d\n", trials, holds, exists)

	// Part 2 (open): C4 (via reduction of acyclic schemes) vs existence
	// of a monotone increasing τ-optimal strategy.
	trials, holds, exists = 0, 0, 0
	counterexamples := 0
	for t := 0; t < 40; t++ {
		raw := gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 5, 3)
		reduced, err := semijoin.FullReduce(raw)
		if err != nil {
			continue
		}
		ev := database.NewEvaluator(reduced)
		if !ev.ResultNonEmpty() {
			continue
		}
		trials++
		if !conditions.Check(ev, conditions.C4).Holds {
			continue
		}
		holds++
		if someOptimumIs(ev, func(n *strategy.Node) bool { return n.MonotoneIncreasing(ev) }) {
			exists++
		} else {
			counterexamples++
		}
	}
	fmt.Fprintf(tw, "C4 ⟹ increasing (open)\t%d\t%d\t%d\n", trials, holds, exists)
	tw.Flush()
	if counterexamples > 0 {
		fmt.Fprintf(w, "found %d C4 instances whose τ-optima are all non-monotone — evidence against the open conjecture\n", counterexamples)
	} else {
		fmt.Fprintln(w, "no counterexample in this family: every C4 instance had a monotone increasing τ-optimum")
	}
	e.that(trials > 0 && holds > 0)
	return e.summary("monotone-strategy probes (Theorem 3 corollary verified; open question sampled)")
}

// someOptimumIs reports whether some τ-optimal strategy satisfies pred.
func someOptimumIs(ev *database.Evaluator, pred func(*strategy.Node) bool) bool {
	db := ev.Database()
	best := -1
	strategy.EnumerateAll(db.All(), func(n *strategy.Node) bool {
		if c := n.Cost(ev); best == -1 || c < best {
			best = c
		}
		return true
	})
	found := false
	strategy.EnumerateAll(db.All(), func(n *strategy.Node) bool {
		if n.Cost(ev) == best && pred(n) {
			found = true
			return false
		}
		return true
	})
	return found
}

func runUnion(w io.Writer) Summary {
	header(w, "E-union", "⋈ = ∪ satisfies C4; is the linear optimum ever beaten? (open)")
	var e expect
	rng := rand.New(rand.NewSource(112))
	tw := table(w)
	fmt.Fprintln(tw, "k sets\ttrials\tmonotone increasing (all strategies)\tlinear = overall optimum")
	linGapTotal := 0
	for _, k := range []int{3, 4, 5} {
		trials, mono, linOpt := 0, 0, 0
		for t := 0; t < 40; t++ {
			sets := make([]*relation.Relation, k)
			sch := relation.SchemaFromString("X")
			for i := range sets {
				r := relation.New("", sch)
				rows := 1 + rng.Intn(8)
				for j := 0; j < rows; j++ {
					r.Insert(relation.Tuple{"X": relation.Value(fmt.Sprintf("v%d", rng.Intn(10)))})
				}
				sets[i] = r
			}
			ev := setops.NewEvaluator(setops.Union, sets...)
			trials++
			// C4's conclusion: every step grows.
			allMono := true
			strategy.EnumerateAll(ev.All(), func(n *strategy.Node) bool {
				for _, s := range n.Steps() {
					c := ev.Size(s.Set())
					if c < ev.Size(s.Left().Set()) || c < ev.Size(s.Right().Set()) {
						allMono = false
						return false
					}
				}
				return true
			})
			if e.that(allMono) {
				mono++
			}
			_, bestAll := ev.OptimizeAll()
			_, bestLin := ev.OptimizeLinear()
			if bestLin == bestAll {
				linOpt++
			} else {
				linGapTotal++
			}
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", k, trials, mono, linOpt)
	}
	tw.Flush()
	if linGapTotal > 0 {
		fmt.Fprintf(w, "%d instances where bushy union trees beat every linear order — unions do NOT inherit Theorem 3\n", linGapTotal)
	} else {
		fmt.Fprintln(w, "linear union orders matched the optimum on every sampled instance")
	}
	return e.summary("union strategies probed; C4's monotone growth confirmed on every instance")
}

func runOsborn(w io.Writer) Summary {
	header(w, "E-osborn", "FDs implying C2 ⟹ some τ-optimum strategy is lossless (every step chase-certified)")
	var e expect
	rng := rand.New(rand.NewSource(113))
	trials, verified, osbornAll, extAll := 0, 0, 0, 0
	for t := 0; t < 40; t++ {
		db, fds := fdChain(rng, 4, 6)
		ev := database.NewEvaluator(db)
		if !ev.ResultNonEmpty() {
			continue
		}
		if !conditions.Check(ev, conditions.C2).Holds {
			continue
		}
		trials++
		// Find a τ-optimum strategy that is lossless.
		if e.that(someOptimumIs(ev, func(n *strategy.Node) bool {
			return fd.LosslessStrategy(db, n, fds)
		})) {
			verified++
		}
		// Classify the CP-free optimum's steps.
		res, err := optimizer.Optimize(ev, optimizer.SpaceNoCP)
		if err == nil {
			if fd.OsbornStrategy(db, res.Strategy, fds) {
				osbornAll++
			}
			if fd.ExtensionJoinStrategy(db, res.Strategy, fds) {
				extAll++
			}
		}
	}
	tw := table(w)
	fmt.Fprintln(tw, "trials (C2 via FDs)\tτ-optimum lossless exists\tno-CP optimum all-Osborn\tall-extension-join")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", trials, verified, osbornAll, extAll)
	tw.Flush()
	fmt.Fprintln(w, "paper: §5 — C2 from FDs puts a lossless strategy among the τ-optima (Osborn/Honeyman steps)")
	if trials == 0 {
		return Summary{OK: false, Note: "no applicable trials"}
	}
	return e.summary("lossless τ-optimal strategies found on every C2-certified instance")
}

func runGreedy(w io.Writer) Summary {
	header(w, "E-greedy", "smallest-result heuristic vs τ-optimum")
	var e expect
	rng := rand.New(rand.NewSource(114))
	tw := table(w)
	fmt.Fprintln(tw, "workload\tn\ttrials\tgreedy optimal\tmean greedy/optimal\tmax")
	for _, wl := range []string{"superkey (C3)", "uniform", "zipf"} {
		for _, n := range []int{4, 6, 8} {
			trials, opt := 0, 0
			sum, maxr := 0.0, 0.0
			for t := 0; t < 20; t++ {
				var db *database.Database
				switch wl {
				case "superkey (C3)":
					db = gen.Diagonal(rng, gen.Schemes(gen.Chain, n), 8, 0.6)
				case "uniform":
					db = gen.Uniform(rng, gen.Schemes(gen.Chain, n), 6, 4)
				default:
					db = gen.Zipf(rng, gen.Schemes(gen.Chain, n), 8, 4, 1.4)
				}
				ev := database.NewEvaluator(db)
				best, err := optimizer.Optimize(ev, optimizer.SpaceAll)
				if err != nil || best.Cost == 0 {
					continue
				}
				greedy := optimizer.Greedy(ev)
				trials++
				e.that(greedy.Cost >= best.Cost)
				ratio := float64(greedy.Cost) / float64(best.Cost)
				sum += ratio
				if ratio > maxr {
					maxr = ratio
				}
				if greedy.Cost == best.Cost {
					opt++
				}
			}
			if trials == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.3f\n", wl, n, trials, opt, sum/float64(trials), maxr)
		}
	}
	tw.Flush()
	fmt.Fprintln(w, "greedy never beats the optimum (sanity) and loses ground as joins fan out")
	return e.summary("greedy baseline quantified")
}
