package estimate

import (
	"multijoin/internal/database"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

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
// Every pairwise selectivity is computed once, at construction, so Size
// is a fold of table lookups. Each match count is a sum of integer
// products bounded by |R_j|·|R_i|, taken in integer arithmetic and
// converted once; below 2^53 float64 holds it exactly, so it does not
// depend on the order the values are visited in. The fixed fold order
// then makes the float product deterministic.
//
// Like Catalog, a HistogramCatalog is not safe for concurrent use: Size
// reuses per-catalog scratch buffers.
type HistogramCatalog struct {
	*Catalog
	// sel[i][x] holds the selectivities of the predicates on relation i's
	// x-th attribute (universe position relAttrs[i][x]) between i and each
	// earlier relation carrying it: sel[i][x][a] is the one with the a-th
	// of them, so len(sel[i][x]) is i's rank among the attribute's
	// carriers. An attribute carried by k relations takes k(k−1)/2
	// entries.
	sel [][][]float64
	// seenBy is Size's scratch: seenBy[pos] is the rank of the relation
	// already providing the attribute at pos, or -1.
	seenBy []int
}

// NewHistogramCatalog gathers full histograms from the database and
// computes every pairwise match count from them. Histograms are keyed
// by dictionary ID; when the relations do not share one dictionary,
// their values are mapped into a catalog-private ID space first, so no
// relation's dictionary grows.
func NewHistogramCatalog(db *database.Database) *HistogramCatalog {
	c := NewCatalog(db)
	h := &HistogramCatalog{
		Catalog: c,
		sel:     make([][][]float64, db.Len()),
		seenBy:  make([]int, len(c.attrs)),
	}
	ids := commonDict(db)
	private := ids == nil
	if private {
		ids = relation.NewDict()
	}
	// hists[pos] holds the histograms of the relations tallied so far
	// that carry the attribute at pos, owners[pos] those relations.
	hists := make([][][]relation.IDCount, len(c.attrs))
	owners := make([][]int, len(c.attrs))
	var tally relation.Tally
	var count []uint32 // indexed by ID; all zero between columns
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		for col, pos := range c.relAttrs[i] { // relAttrs follows Schema().Attrs()
			buckets := append([]relation.IDCount(nil), tally.Column(r, col)...)
			if private {
				for k, b := range buckets {
					buckets[k].ID = ids.ID(r.Dict().Value(b.ID))
				}
			}
			if n := ids.Len(); len(count) < n {
				count = make([]uint32, n)
			}
			// Scatter this column's counts, match each earlier carrier's
			// buckets against them, then clear them.
			for _, e := range buckets {
				count[e.ID] = e.Count
			}
			sel := make([]float64, len(hists[pos]))
			for a, prev := range hists[pos] {
				match := uint64(0)
				for _, e := range prev {
					match += uint64(count[e.ID]) * uint64(e.Count)
				}
				if match > 0 { // else 0, also when either relation is empty
					sel[a] = float64(match) / (c.card[owners[pos][a]] * c.card[i])
				}
			}
			for _, e := range buckets {
				count[e.ID] = 0
			}
			h.sel[i] = append(h.sel[i], sel)
			hists[pos] = append(hists[pos], buckets)
			owners[pos] = append(owners[pos], i)
		}
	}
	for pos := range h.seenBy {
		h.seenBy[pos] = -1
	}
	return h
}

// commonDict returns the dictionary every relation of db interns
// through, or nil when they do not all share one.
func commonDict(db *database.Database) *relation.Dict {
	var d *relation.Dict
	for i := 0; i < db.Len(); i++ {
		if rd := db.Relation(i).Dict(); i == 0 {
			d = rd
		} else if rd != d {
			return nil
		}
	}
	return d
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
// The fold order makes the float product deterministic, and the hot
// path allocates nothing: each selectivity is a lookup in the table
// NewHistogramCatalog filled.
func (h *HistogramCatalog) Size(s hypergraph.Set) float64 {
	if s.Empty() {
		return 0
	}
	h.touched = h.touched[:0]
	first := s.First()
	est := h.card[first]
	for x, pos := range h.relAttrs[first] {
		h.seenBy[pos] = len(h.sel[first][x])
		h.touched = append(h.touched, pos)
	}
	for rest := s.Remove(first); !rest.Empty(); {
		i := rest.First()
		rest = rest.Remove(i)
		est *= h.card[i]
		for x, pos := range h.relAttrs[i] {
			// The provider stays the first relation carrying the attribute,
			// matching the uniform model's max-distinct anchor.
			if a := h.seenBy[pos]; a >= 0 {
				est *= h.sel[i][x][a]
			} else {
				h.seenBy[pos] = len(h.sel[i][x])
				h.touched = append(h.touched, pos)
			}
		}
	}
	for _, pos := range h.touched {
		h.seenBy[pos] = -1
	}
	return est
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
