package relation

import (
	"fmt"
	"sort"
)

// Loader fills a relation from rows written positionally in an input's
// own attribute order — a CSV header's, or the "attrs" of a JSON
// interchange file — which need not be the schema's sorted order. It is
// the one entry point the database loaders insert through.
//
// Values arrive as byte slices. Add interns them in the schema's sorted
// attribute order, the order Insert uses, so a relation loaded through a
// Loader has the same dictionary IDs and the same slab as one built by
// inserting the same rows as tuples. A row whose values the dictionary
// already holds is inserted without allocating.
type Loader struct {
	rel *Relation
	// order[i] is the written position of the schema's i-th attribute.
	order []int
	ids   []uint32 // one row of IDs, reused across Add calls
}

// NewLoader creates an empty relation over attrs, given in written
// order, and a loader that fills it, interning through dict (nil
// selects the process-wide dictionary). ok is false, and the loader
// nil, when attrs repeats an attribute.
func NewLoader(dict *Dict, name string, attrs []Attr) (ld *Loader, ok bool) {
	schema := NewSchema(attrs...)
	if schema.Len() != len(attrs) {
		return nil, false
	}
	sorted := schema.Attrs()
	order := make([]int, len(attrs))
	for j, a := range attrs {
		order[sort.Search(len(sorted), func(i int) bool { return sorted[i] >= a })] = j
	}
	return &Loader{rel: NewIn(dict, name, schema), order: order, ids: make([]uint32, len(attrs))}, true
}

// Add inserts one row, vals[j] being the value of the j-th written
// attribute. A row equal to one already loaded is dropped (set
// semantics). Add keeps no reference to vals. A row of the wrong width
// is an error.
func (l *Loader) Add(vals [][]byte) error {
	if len(vals) != len(l.order) {
		return fmt.Errorf("has %d values, want %d", len(vals), len(l.order))
	}
	l.rel.dict.internBytes(vals, l.order, l.ids)
	l.rel.insertIDs(l.ids)
	return nil
}

// Relation returns the relation the loader fills.
func (l *Loader) Relation() *Relation { return l.rel }
