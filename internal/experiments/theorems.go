package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"multijoin/internal/conditions"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/fd"
	"multijoin/internal/gen"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// The E-thm*, E-superkey, E-lossless and E-c4 experiments validate the
// paper's theorems and Section 4/5 applications on randomized families of
// databases.

func init() {
	register(Info{ID: "E-thm1", Paper: "Theorem 1 (randomized validation)", Run: runTheorem1})
	register(Info{ID: "E-thm2", Paper: "Theorem 2 (randomized validation)", Run: runTheorem2})
	register(Info{ID: "E-thm3", Paper: "Theorem 3 (randomized validation)", Run: runTheorem3})
	register(Info{ID: "E-superkey", Paper: "Section 4: all joins on superkeys ⟹ C3", Run: runSuperkey})
	register(Info{ID: "E-lossless", Paper: "Section 4: lossless joins under FDs ⟹ C2", Run: runLossless})
	register(Info{ID: "E-c4", Paper: "Section 5: acyclic + pairwise consistent ⟹ C4", Run: runC4})
}

// trialDatabases yields a deterministic mixed stream of small databases.
func trialDatabases(seed int64, trials int, yield func(*database.Database)) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < trials; i++ {
		var db *database.Database
		switch i % 4 {
		case 0:
			db = gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 4, 3)
		case 1:
			db = gen.Diagonal(rng, gen.RandomConnectedSchemes(rng, 4, 0.3), 7, 0.5)
		case 2:
			db = gen.Zipf(rng, gen.Schemes(gen.Star, 4), 6, 6, 1.5)
		default:
			db = gen.Uniform(rng, gen.RandomConnectedSchemes(rng, 5, 0.2), 3, 3)
		}
		yield(db)
	}
}

// runTheoremValidation is the shared harness for E-thm1/2/3.
func runTheoremValidation(w io.Writer, theorem core.Theorem, seed int64,
	verify func(*database.Evaluator) error) Summary {
	var e expect
	applicable := 0
	trials := 0
	trialDatabases(seed, 400, func(db *database.Database) {
		trials++
		ev := database.NewEvaluator(db)
		if !ev.ResultNonEmpty() {
			return
		}
		profile := core.Profile{
			Connected:      db.Connected(),
			ResultNonEmpty: true,
			Reports:        conditions.CheckAll(ev),
		}
		certified := false
		for _, c := range core.Certify(profile) {
			if c.Theorem == theorem {
				certified = true
			}
		}
		if !certified {
			return
		}
		applicable++
		e.that(verify(ev) == nil)
	})
	tw := table(w)
	fmt.Fprintln(tw, "trials\tcondition-certified\tconclusion verified\tviolations")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\n", trials, applicable, applicable-e.violations, e.violations)
	tw.Flush()
	fmt.Fprintf(w, "paper: the conclusion must hold on every certified instance (0 violations)\n")
	if applicable == 0 {
		return Summary{OK: false, Note: "no applicable trials"}
	}
	return e.summary(fmt.Sprintf("Theorem %d held on all %d certified instances", int(theorem), applicable))
}

func runTheorem1(w io.Writer) Summary {
	header(w, "E-thm1", "Theorem 1 — under C1′, τ-optimum linear strategies avoid Cartesian products")
	return runTheoremValidation(w, core.Theorem1, 101, core.VerifyTheorem1Exhaustive)
}

func runTheorem2(w io.Writer) Summary {
	header(w, "E-thm2", "Theorem 2 — under C1∧C2, some τ-optimum strategy avoids Cartesian products")
	return runTheoremValidation(w, core.Theorem2, 102, core.VerifyTheorem2Exhaustive)
}

func runTheorem3(w io.Writer) Summary {
	header(w, "E-thm3", "Theorem 3 — under C3, some τ-optimum strategy is linear and CP-free")
	return runTheoremValidation(w, core.Theorem3, 103, core.VerifyTheorem3Exhaustive)
}

func runSuperkey(w io.Writer) Summary {
	header(w, "E-superkey", "all joins on superkeys ⟹ C3 (and hence Theorems 1-3 certify)")
	rng := rand.New(rand.NewSource(104))
	var e expect
	shapes := []gen.Shape{gen.Chain, gen.Star, gen.Clique}
	tw := table(w)
	fmt.Fprintln(tw, "shape\ttrials\tsuperkey joins\tC3 holds\tTheorem 3 verified")
	for _, shape := range shapes {
		trials, c3Count, verified := 0, 0, 0
		for t := 0; t < 40; t++ {
			db := gen.Diagonal(rng, gen.Schemes(shape, 4), 7, 0.5)
			ev := database.NewEvaluator(db)
			trials++
			e.that(fd.AllJoinsOnSuperkeysSemantic(db))
			if !e.that(conditions.Check(ev, conditions.C3).Holds) {
				continue
			}
			c3Count++
			if e.that(core.VerifyTheorem3Exhaustive(ev) == nil) {
				verified++
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", shape, trials, trials, c3Count, verified)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: §4 proves superkey joins satisfy C3; every trial must verify")
	return e.summary("superkey-join databases always satisfy C3")
}

// fdChain builds a chain database whose states satisfy A_{i+1} → A_i, so
// every connected subset joins losslessly (shared attributes key one
// side).
func fdChain(rng *rand.Rand, n, universe int) (*database.Database, []fd.FD) {
	rels := make([]*relation.Relation, n)
	fds := make([]fd.FD, 0, n)
	for i := 0; i < n; i++ {
		a := relation.Attr(fmt.Sprintf("A%d", i))
		b := relation.Attr(fmt.Sprintf("A%d", i+1))
		fds = append(fds, fd.FD{From: relation.NewSchema(b), To: relation.NewSchema(a)})
		// Deterministic function g: b-value -> a-value makes the FD hold.
		g := make([]int, universe)
		for k := range g {
			g[k] = rng.Intn(universe)
		}
		r := relation.New(fmt.Sprintf("R%d", i), relation.NewSchema(a, b))
		for k := 0; k < universe; k++ {
			if rng.Float64() < 0.6 {
				r.Insert(relation.Tuple{
					a: relation.Value(fmt.Sprintf("v%d", g[k])),
					b: relation.Value(fmt.Sprintf("v%d", k)),
				})
			}
		}
		if r.Empty() {
			r.Insert(relation.Tuple{a: "v0", b: "v0"})
		}
		rels[i] = r
	}
	return database.New(rels...), fds
}

func runLossless(w io.Writer) Summary {
	header(w, "E-lossless", "FDs with no nontrivial lossy joins ⟹ C2")
	rng := rand.New(rand.NewSource(105))
	var e expect
	trials, lossless, c2holds := 0, 0, 0
	for t := 0; t < 60; t++ {
		db, fds := fdChain(rng, 4, 6)
		trials++
		// The chase must certify every connected subset lossless.
		if !e.that(fd.NoNontrivialLossyJoins(db.Graph(), fds)) {
			continue
		}
		lossless++
		// States satisfy the FDs by construction.
		for i := 0; i < db.Len(); i++ {
			for _, f := range fds {
				e.that(fd.Satisfies(db.Relation(i), f))
			}
		}
		ev := database.NewEvaluator(db)
		if e.that(conditions.Check(ev, conditions.C2).Holds) {
			c2holds++
		}
	}
	tw := table(w)
	fmt.Fprintln(tw, "trials\tchase-certified lossless\tC2 holds")
	fmt.Fprintf(tw, "%d\t%d\t%d\n", trials, lossless, c2holds)
	tw.Flush()
	fmt.Fprintln(w, "paper: §4 derives C2 from losslessness via Rissanen's theorem; every trial must verify")
	return e.summary("lossless FD-governed databases always satisfy C2")
}

func runC4(w io.Writer) Summary {
	header(w, "E-c4", "acyclic + pairwise consistent ⟹ C4; strategies become monotone increasing")
	rng := rand.New(rand.NewSource(106))
	var e expect
	tw := table(w)
	fmt.Fprintln(tw, "shape\ttrials\tconsistent after reduction\tC4 holds\tall strategies monotone increasing")
	for _, shape := range []gen.Shape{gen.Chain, gen.Star} {
		trials, consistent, c4holds, monotone := 0, 0, 0, 0
		for t := 0; t < 40; t++ {
			raw := gen.Uniform(rng, gen.Schemes(shape, 4), 5, 3)
			reduced, err := semijoin.FullReduce(raw)
			if err != nil {
				continue
			}
			ev := database.NewEvaluator(reduced)
			if !ev.ResultNonEmpty() {
				continue
			}
			trials++
			if e.that(semijoin.PairwiseConsistent(reduced)) {
				consistent++
			} else {
				continue
			}
			if e.that(conditions.Check(ev, conditions.C4).Holds) {
				c4holds++
			} else {
				continue
			}
			// C4 makes every join of linked connected pieces
			// non-shrinking; check that every CP-free strategy is
			// monotone increasing (the regime §5 discusses).
			allMono := true
			strategy.EnumerateConnected(reduced.Graph(), reduced.All(), func(n *strategy.Node) bool {
				if !n.MonotoneIncreasing(ev) {
					allMono = false
					return false
				}
				return true
			})
			if e.that(allMono) {
				monotone++
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", shape, trials, consistent, c4holds, monotone)
	}
	tw.Flush()
	fmt.Fprintln(w, "paper: §5 shows γ-acyclic pairwise-consistent databases satisfy C4")
	return e.summary("reduced acyclic databases always satisfy C4")
}
