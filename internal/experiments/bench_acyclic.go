package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
)

// The acyclic bench section (schema v7) measures the fifth strategy
// space on schemes where it exists: each corpus entry is analyzed across
// the four binary-join subspaces and the governed Yannakakis fast path,
// and the section records the fast path's τ and max intermediate next to
// the best max step cost any binary subspace achieves. The corpus
// includes a needle-in-haystack chain built so that every binary join
// order must materialize a large intermediate while the full semijoin
// reduction shrinks the inputs to the single matching tuple — the shape
// on which the Section 5 guarantee (intermediates bounded by the output)
// separates the spaces by an order of magnitude.

// AcyclicCase is one acyclic corpus entry's measured result.
type AcyclicCase struct {
	// Name identifies the corpus entry, e.g. "example5" or "needle40".
	Name string `json:"name"`
	// Relations is the database's relation count.
	Relations int `json:"relations"`
	// Output is |R_D|, the full join's size.
	Output int `json:"output"`
	// Tau is the Yannakakis join phase's τ (Σ join sizes).
	Tau int `json:"tau"`
	// MaxIntermediate is the largest join the fast path materializes;
	// after full reduction it is bounded by Output on every entry.
	MaxIntermediate int `json:"maxIntermediate"`
	// Semijoins and SemijoinTuples measure the reduction program: its
	// length and the tuples its semijoin results materialize.
	Semijoins int `json:"semijoins"`
	// SemijoinTuples is the Σ of the reduction's semijoin result sizes.
	SemijoinTuples int `json:"semijoinTuples"`
	// BestBinarySpace names the binary-join subspace whose τ-optimal
	// strategy has the smallest max step cost; BestBinaryMax is that cost.
	BestBinarySpace string `json:"bestBinarySpace"`
	// BestBinaryMax is the smallest max step cost across the subspaces.
	BestBinaryMax int `json:"bestBinaryMax"`
	// Ratio is BestBinaryMax over the fast path's max intermediate (the
	// latter clamped to 1), the separation the validator gates on.
	Ratio float64 `json:"ratio"`
	// Match records that the fast path's result relation is identical to
	// the kernel evaluator's R_D — the differential contract.
	Match bool `json:"match"`
	// WallNS is the case's total wall time.
	WallNS int64 `json:"wallNs"`
}

// AcyclicBench is the bench report's acyclic fast-path section.
type AcyclicBench struct {
	// Cases lists one measurement per acyclic corpus entry, in run order.
	Cases []AcyclicCase `json:"cases"`
	// BestRatio and BestCase identify the corpus entry with the widest
	// binary-versus-Yannakakis separation.
	BestRatio float64 `json:"bestRatio"`
	// BestCase names the entry achieving BestRatio.
	BestCase string `json:"bestCase"`
}

// acyclicRatioFloor is the section's acceptance gate: on at least one
// corpus entry the best binary subspace's max intermediate must exceed
// the fast path's by this factor.
const acyclicRatioFloor = 10.0

// acyclicCorpus returns the fixed, deterministic corpus of connected
// α-acyclic databases: two of the paper's chain examples, generated
// tree shapes at pinned seeds, and the adversarial needle chain.
func acyclicCorpus() []benchEntry {
	// The narrow domain keeps the generated entries' outputs non-empty,
	// so the binary-versus-Yannakakis comparison measures real joins.
	mk := func(shape gen.Shape, name string, n int) benchEntry {
		rng := rand.New(rand.NewSource(1))
		return benchEntry{name, gen.Uniform(rng, gen.Schemes(shape, n), 8, 3)}
	}
	rng := rand.New(rand.NewSource(7))
	return []benchEntry{
		{"example3", paperex.Example3()},
		{"example5", paperex.Example5()},
		mk(gen.Chain, "chain6", 6),
		mk(gen.Star, "star6", 6),
		{"randtree6", gen.Uniform(rng, gen.RandomAcyclicSchemes(rng, 6), 6, 4)},
		{"needle40", needleDB(40)},
	}
}

// needleDB builds the adversarial chain R(A,B) ⋈ S(B,C) ⋈ T(C,D): k
// dangling tuples on each side join into either R⋈S or S⋈T but never
// through to the output, which is the single starred tuple. Every binary
// join order's first step therefore materializes at least k+1 tuples
// (the Cartesian orders far more), while the full semijoin reduction
// deletes every dangling tuple and the join phase never holds more than
// one.
func needleDB(k int) *database.Database {
	v := func(format string, i int) relation.Value {
		return relation.Value(fmt.Sprintf(format, i))
	}
	r := relation.New("R", relation.SchemaFromString("AB"))
	s := relation.New("S", relation.SchemaFromString("BC"))
	t := relation.New("T", relation.SchemaFromString("CD"))
	for i := 0; i < k; i++ {
		r.InsertRow([]relation.Value{v("a%d", i), v("b%d", i)})
		s.InsertRow([]relation.Value{v("b%d", i), "c-dead"})
		s.InsertRow([]relation.Value{"b-dead", v("c%d", i)})
		t.InsertRow([]relation.Value{v("c%d", i), v("d%d", i)})
	}
	r.InsertRow([]relation.Value{"a-hit", "b-hit"})
	s.InsertRow([]relation.Value{"b-hit", "c-hit"})
	t.InsertRow([]relation.Value{"c-hit", "d-hit"})
	return database.New(r, s, t)
}

// benchAcyclic measures the acyclic corpus.
func benchAcyclic(w io.Writer) (*AcyclicBench, error) {
	out := &AcyclicBench{}
	for _, entry := range acyclicCorpus() {
		c, err := benchAcyclicOne(entry.name, entry.db)
		if err != nil {
			return nil, fmt.Errorf("bench acyclic %s: %w", entry.name, err)
		}
		fmt.Fprintf(w, "acyclic %-10s out=%-5d yannMax=%-5d binMax=%-5d (%s) ratio=%.1f match=%v\n",
			c.Name, c.Output, c.MaxIntermediate, c.BestBinaryMax, c.BestBinarySpace, c.Ratio, c.Match)
		out.Cases = append(out.Cases, c)
		if c.Ratio > out.BestRatio {
			out.BestRatio = c.Ratio
			out.BestCase = c.Name
		}
	}
	return out, nil
}

// benchAcyclicOne analyzes one database across the five spaces and
// differentially checks the fast path's result against the kernel's.
func benchAcyclicOne(name string, db *database.Database) (AcyclicCase, error) {
	start := time.Now()
	exact := database.NewEvaluator(db)
	an, err := core.AnalyzeEvaluator(exact)
	if err != nil {
		return AcyclicCase{}, err
	}
	if an.Yannakakis == nil {
		return AcyclicCase{}, fmt.Errorf("corpus entry has no yannakakis result (cyclic scheme?)")
	}
	y := an.Yannakakis
	c := AcyclicCase{
		Name:            name,
		Relations:       db.Len(),
		Output:          y.Output,
		Tau:             y.Tau,
		MaxIntermediate: y.MaxIntermediate,
		Semijoins:       y.Semijoins,
		SemijoinTuples:  y.SemijoinTuples,
	}
	// The best the binary spaces can do on the max-intermediate metric:
	// each subspace contributes its τ-optimal strategy's max step cost.
	for _, res := range an.Results {
		max := 0
		for _, sc := range res.Strategy.StepCosts(exact) {
			if sc > max {
				max = sc
			}
		}
		if c.BestBinarySpace == "" || max < c.BestBinaryMax {
			c.BestBinarySpace = res.Space.String()
			c.BestBinaryMax = max
		}
	}
	floor := c.MaxIntermediate
	if floor < 1 {
		floor = 1
	}
	c.Ratio = float64(c.BestBinaryMax) / float64(floor)
	ev, err := semijoin.YannakakisGuarded(db, nil, nil)
	if err != nil {
		return AcyclicCase{}, err
	}
	c.Match = ev.Result.Equal(exact.Result())
	c.WallNS = time.Since(start).Nanoseconds()
	return c, nil
}

// WriteAcyclicTable renders an acyclic section as an aligned
// human-readable table — what obscheck -acyclic prints and CI uploads
// next to the raw JSON.
func WriteAcyclicTable(w io.Writer, a *AcyclicBench) {
	if a == nil {
		fmt.Fprintln(w, "no acyclic section")
		return
	}
	tw := table(w)
	fmt.Fprintln(tw, "case\trels\toutput\tyannτ\tyannMax\tsemijoins\tsjTuples\tbinMax\tbinSpace\tratio\tmatch")
	for _, c := range a.Cases {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\t%.1f\t%v\n",
			c.Name, c.Relations, c.Output, c.Tau, c.MaxIntermediate,
			c.Semijoins, c.SemijoinTuples, c.BestBinaryMax, c.BestBinarySpace,
			c.Ratio, c.Match)
	}
	tw.Flush()
	fmt.Fprintf(w, "best separation: %.1f× on %s (floor %.0f×)\n",
		a.BestRatio, a.BestCase, acyclicRatioFloor)
}

// validateAcyclicBench checks the acyclic section's contract: every case
// differentially matched with its max intermediate bounded by the
// output, and at least one case separating the spaces by the floor.
func validateAcyclicBench(a *AcyclicBench) error {
	if a == nil {
		return fmt.Errorf("bench: no acyclic section")
	}
	if len(a.Cases) == 0 {
		return fmt.Errorf("bench: acyclic section has no cases")
	}
	best := 0.0
	bestCase := ""
	for _, c := range a.Cases {
		if c.Name == "" {
			return fmt.Errorf("bench: acyclic case with empty name")
		}
		if c.WallNS <= 0 {
			return fmt.Errorf("bench: acyclic case %s has non-positive wall time", c.Name)
		}
		if !c.Match {
			return fmt.Errorf("bench: acyclic case %s: fast path diverges from the kernel join", c.Name)
		}
		if c.MaxIntermediate > c.Output {
			return fmt.Errorf("bench: acyclic case %s: max intermediate %d exceeds output %d",
				c.Name, c.MaxIntermediate, c.Output)
		}
		if c.Semijoins <= 0 || c.BestBinaryMax <= 0 {
			return fmt.Errorf("bench: acyclic case %s has implausible program/step counts", c.Name)
		}
		if c.Ratio > best {
			best = c.Ratio
			bestCase = c.Name
		}
	}
	if best != a.BestRatio || bestCase != a.BestCase {
		return fmt.Errorf("bench: acyclic best ratio %.2f on %q does not match the cases (%.2f on %q)",
			a.BestRatio, a.BestCase, best, bestCase)
	}
	if best < acyclicRatioFloor {
		return fmt.Errorf("bench: acyclic best separation %.2f×, want ≥ %.0f×", best, acyclicRatioFloor)
	}
	return nil
}
