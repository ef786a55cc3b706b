// Package estimate implements the classical System R cardinality model —
// per-attribute uniformity and cross-attribute independence — that the
// paper explicitly refuses to assume (Section 1: such assumptions are
// "generally believed to be unrealistic in practice, and known to be
// unsatisfactory in theory"). Having both the exact τ (the database
// evaluator) and this estimator side by side lets the E-estimate
// experiment quantify that refusal: how often do estimate-driven
// optimizers pick strategies that are worse under the true τ, and how
// often do conditions checked on estimates misclassify?
//
// Catalogs are also the size models behind estimate-driven planning:
// optimizer.OptimizeModel and core.AnalyzeEstimated plug Catalog.Size
// (or HistogramCatalog.Size) into the same subset DPs the exact
// pipeline runs, choosing a plan without executing any join.
package estimate

import (
	"math"
	"sort"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// Catalog holds the per-relation statistics the estimator uses:
// cardinalities and per-attribute distinct-value counts — exactly what a
// System R-style optimizer keeps. Attributes are interned into a sorted
// universe at construction so Size runs allocation-free over index
// arrays and multiplies selectivities in a fixed attribute order (map
// iteration would make the float product — and hence the chosen plan —
// vary across runs).
//
// A Catalog is not safe for concurrent use: Size reuses per-catalog
// scratch buffers. Create one Catalog per goroutine.
type Catalog struct {
	db   *database.Database
	card []float64
	// attrs is the sorted attribute universe; index maps an attribute to
	// its universe position.
	attrs []relation.Attr
	index map[relation.Attr]int
	// relAttrs[i] lists relation i's attributes as ascending universe
	// positions; distinct[i][a] is its distinct count on universe
	// position a (0 when the relation lacks the attribute).
	relAttrs [][]int
	distinct [][]float64
	// Scratch for Size: counts/maxD are universe-indexed accumulators,
	// touched records which positions the current subset dirtied so only
	// those are reset.
	counts  []int
	maxD    []float64
	touched []int
}

// NewCatalog gathers exact statistics from the database's states. The
// *statistics* are exact; the *estimates* derived from them assume
// uniformity and independence, which is where reality leaks away.
func NewCatalog(db *database.Database) *Catalog {
	c := &Catalog{
		db:       db,
		card:     make([]float64, db.Len()),
		index:    make(map[relation.Attr]int),
		relAttrs: make([][]int, db.Len()),
		distinct: make([][]float64, db.Len()),
	}
	for i := 0; i < db.Len(); i++ {
		for _, a := range db.Scheme(i).Attrs() {
			if _, ok := c.index[a]; !ok {
				c.index[a] = 0 // position assigned after the sort below
				c.attrs = append(c.attrs, a)
			}
		}
	}
	sort.Slice(c.attrs, func(i, j int) bool { return c.attrs[i] < c.attrs[j] })
	for pos, a := range c.attrs {
		c.index[a] = pos
	}
	var tally relation.Tally
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		c.card[i] = float64(r.Size())
		c.distinct[i] = make([]float64, len(c.attrs))
		for col, a := range r.Schema().Attrs() { // Attrs() is sorted, so positions ascend
			pos := c.index[a]
			c.relAttrs[i] = append(c.relAttrs[i], pos)
			c.distinct[i][pos] = float64(len(tally.Column(r, col)))
		}
	}
	c.counts = make([]int, len(c.attrs))
	c.maxD = make([]float64, len(c.attrs))
	c.touched = make([]int, 0, len(c.attrs))
	return c
}

// Database returns the cataloged database.
func (c *Catalog) Database() *database.Database { return c.db }

// Card returns relation i's cardinality statistic.
func (c *Catalog) Card(i int) float64 { return c.card[i] }

// Distinct returns relation i's distinct-value count on the attribute
// (0 when the relation's scheme lacks it).
func (c *Catalog) Distinct(i int, a relation.Attr) float64 {
	pos, ok := c.index[a]
	if !ok {
		return 0
	}
	return c.distinct[i][pos]
}

// Size estimates τ(R_S) for the subset s with the textbook formula:
//
//	|R_S| ≈ Π_i |R_i| · Π_A (1 / max_i distinct_i(A))^(k_A − 1)
//
// where A ranges over attributes shared by k_A ≥ 2 relations of s. Each
// shared attribute contributes one equi-join predicate per extra
// relation, with selectivity 1/max(distinct counts) — uniformity — and
// the predicates multiply — independence. Relations fold in ascending
// index order and selectivities in ascending attribute order, so the
// float product is deterministic; the DP subproblem hot path allocates
// nothing.
func (c *Catalog) Size(s hypergraph.Set) float64 {
	if s.Empty() {
		return 0
	}
	est := 1.0
	c.touched = c.touched[:0]
	for rest := s; !rest.Empty(); {
		i := rest.First()
		rest = rest.Remove(i)
		est *= c.card[i]
		for _, pos := range c.relAttrs[i] {
			if c.counts[pos] == 0 {
				c.touched = append(c.touched, pos)
				c.maxD[pos] = 0
			}
			c.counts[pos]++
			if d := c.distinct[i][pos]; d > c.maxD[pos] {
				c.maxD[pos] = d
			}
		}
	}
	sort.Ints(c.touched) // fixed attribute order for the float product
	for _, pos := range c.touched {
		k := c.counts[pos]
		c.counts[pos] = 0 // reset scratch for the next call
		if k < 2 {
			continue
		}
		d := c.maxD[pos]
		if d < 1 {
			d = 1
		}
		est *= math.Pow(1/d, float64(k-1))
	}
	return est
}

// Cost estimates τ(S) for a strategy: the sum of the estimated step
// result sizes.
func (c *Catalog) Cost(n *strategy.Node) float64 {
	total := 0.0
	for _, step := range n.Steps() {
		total += c.Size(step.Set())
	}
	return total
}

// Optimize finds the strategy minimizing the *estimated* τ over the full
// bushy space, by the same subset dynamic program as the exact
// optimizer (optimizer.OptimizeModel with this catalog as the size
// model). The returned strategy can then be costed under the true τ to
// measure the estimation regret.
func (c *Catalog) Optimize() *strategy.Node {
	return optimizeBySize(c.db, c.Size)
}

// optimizeBySize runs the full-space model DP, panicking on the
// impossible errors (the database was validated when the catalog
// gathered its statistics, and there is no guard to trip).
func optimizeBySize(db *database.Database, size optimizer.SizeModel) *strategy.Node {
	res, err := optimizer.OptimizeModel(db, size, optimizer.SpaceAll)
	if err != nil {
		panic("estimate: model optimization failed: " + err.Error())
	}
	return res.Strategy
}

// RelativeError reports |est − exact| / max(exact, 1) for the subset s,
// the per-subset inaccuracy the E-estimate experiment aggregates.
func (c *Catalog) RelativeError(ev *database.Evaluator, s hypergraph.Set) float64 {
	exact := float64(ev.Size(s))
	est := c.Size(s)
	denom := exact
	if denom < 1 {
		denom = 1
	}
	return math.Abs(est-exact) / denom
}
