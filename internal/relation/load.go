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
// attribute order, the order Insert uses, and appends the row to the
// slab; Relation drops the rows that repeat an earlier one in a single
// pass. So a relation loaded through a Loader has the same dictionary
// IDs, the same slab and the same row order as one built by inserting
// the same rows as tuples, and its membership index is built once,
// sized to the slab. Until Relation runs the slab holds the duplicates
// too; the input's size bounds them.
type Loader struct {
	rel *Relation
	// order[i] is the written position of the schema's i-th attribute.
	order []int
	ids   []uint32 // one row of IDs, reused across Add calls
	// checked is how many leading rows of the slab are distinct.
	checked int
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

// Add appends one row, vals[j] being the value of the j-th written
// attribute. A row equal to one already loaded is dropped by the next
// Relation call (set semantics). Add keeps no reference to vals. A row
// of the wrong width is an error.
func (l *Loader) Add(vals [][]byte) error {
	if len(vals) != len(l.order) {
		return fmt.Errorf("has %d values, want %d", len(vals), len(l.order))
	}
	l.rel.dict.internBytes(vals, l.order, l.ids)
	l.rel.data = append(l.rel.data, l.ids...)
	l.rel.n++
	return nil
}

// Relation returns the relation the loader fills, first dropping the
// rows added since the last call that repeat an earlier row.
func (l *Loader) Relation() *Relation {
	l.rel.dedupFrom(l.checked)
	l.checked = l.rel.n
	return l.rel
}
