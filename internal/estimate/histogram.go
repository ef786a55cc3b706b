package estimate

import (
	"sort"

	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// valCount is one histogram bucket: a value and its tuple frequency.
// Buckets are kept sorted by value so pairwise selectivities are a
// deterministic two-pointer merge instead of a map walk.
type valCount struct {
	v relation.Value
	c float64
}

// HistogramCatalog refines the plain Catalog with exact per-attribute
// value frequencies (full-resolution histograms). Joins on a single
// shared attribute are then estimated by matching frequencies —
// Σ_v f_R(v)·f_S(v) — which is exact for two-relation single-attribute
// joins; independence is still assumed *across* attributes and across
// join predicates, so multiway and multi-attribute estimates remain
// approximations. The E-estimate ablation uses this to show how much of
// the regret better statistics recover, and how much is inherent to the
// independence assumption the paper distrusts.
//
// Like Catalog, a HistogramCatalog is not safe for concurrent use: Size
// reuses per-catalog scratch buffers.
type HistogramCatalog struct {
	*Catalog
	// freq[i][pos] is relation i's histogram on universe position pos,
	// sorted by value (nil when the relation lacks the attribute).
	freq [][][]valCount
	// seenBy is Size's scratch: seenBy[pos] is the relation already
	// providing the attribute at pos, or -1.
	seenBy []int
}

// NewHistogramCatalog gathers full histograms from the database.
func NewHistogramCatalog(db *database.Database) *HistogramCatalog {
	h := &HistogramCatalog{
		Catalog: NewCatalog(db),
		freq:    make([][][]valCount, db.Len()),
	}
	var tally relation.Tally
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		h.freq[i] = make([][]valCount, len(h.attrs))
		for col, a := range r.Schema().Attrs() {
			counts := tally.Column(r, col)
			buckets := make([]valCount, len(counts))
			for k, e := range counts {
				buckets[k] = valCount{v: r.Dict().Value(e.ID), c: float64(e.Count)}
			}
			sort.Slice(buckets, func(x, y int) bool { return buckets[x].v < buckets[y].v })
			h.freq[i][h.index[a]] = buckets
		}
	}
	h.seenBy = make([]int, len(h.attrs))
	for pos := range h.seenBy {
		h.seenBy[pos] = -1
	}
	return h
}

// Size estimates τ(R_S) by folding relations into the subset in
// ascending index order: starting from the first relation's
// cardinality, each further relation contributes a factor
//
//	|R_i| · Π_{A shared} sel(A)
//
// where sel(A) for the single new predicate on A is estimated from the
// two histograms as Σ_v f₁(v)·f₂(v) / (|R₁|·|R₂|) — the exact
// selectivity of that pairwise predicate — with independence assumed
// between predicates. Better than uniform 1/maxDistinct, still not τ.
// The fold order and the sorted-bucket merges make the float product
// deterministic, and the hot path allocates nothing.
func (h *HistogramCatalog) Size(s hypergraph.Set) float64 {
	if s.Empty() {
		return 0
	}
	h.touched = h.touched[:0]
	first := s.First()
	est := h.card[first]
	for _, pos := range h.relAttrs[first] {
		h.seenBy[pos] = first
		h.touched = append(h.touched, pos)
	}
	for rest := s.Remove(first); !rest.Empty(); {
		i := rest.First()
		rest = rest.Remove(i)
		est *= h.card[i]
		for _, pos := range h.relAttrs[i] {
			// The provider stays the first relation carrying the attribute,
			// matching the uniform model's max-distinct anchor.
			if j := h.seenBy[pos]; j >= 0 {
				est *= h.pairSelectivity(pos, j, i)
			} else {
				h.seenBy[pos] = i
				h.touched = append(h.touched, pos)
			}
		}
	}
	for _, pos := range h.touched {
		h.seenBy[pos] = -1
	}
	return est
}

// pairSelectivity estimates the selectivity of the equi-join predicate
// on the attribute at universe position pos between relations j and i,
// merging their sorted histograms.
func (h *HistogramCatalog) pairSelectivity(pos, j, i int) float64 {
	fj, fi := h.freq[j][pos], h.freq[i][pos]
	if len(fj) == 0 || len(fi) == 0 || h.card[j] == 0 || h.card[i] == 0 {
		return 0
	}
	match := 0.0
	for x, y := 0, 0; x < len(fj) && y < len(fi); {
		switch {
		case fj[x].v < fi[y].v:
			x++
		case fj[x].v > fi[y].v:
			y++
		default:
			match += fj[x].c * fi[y].c
			x++
			y++
		}
	}
	return match / (h.card[j] * h.card[i])
}

// Cost estimates τ(S) for a strategy under the histogram model.
func (h *HistogramCatalog) Cost(n *strategy.Node) float64 {
	total := 0.0
	for _, step := range n.Steps() {
		total += h.Size(step.Set())
	}
	return total
}

// Optimize finds the strategy minimizing the histogram-estimated τ.
func (h *HistogramCatalog) Optimize() *strategy.Node {
	return optimizeBySize(h.db, h.Size)
}
