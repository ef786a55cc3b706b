package relation

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Relation is a named relation state over a scheme: the paper's ordered
// pair (R, R) of a relation scheme and a finite set of tuples. Rows are
// stored positionally in the schema's sorted attribute order and are
// deduplicated on insert, preserving the set semantics of the model.
//
// Physically the state is dictionary-encoded: every Value is interned
// through a Dict to a dense uint32 ID, and the rows live in one flat
// row-major ID slab. Dedup and membership go through a lazy 64-bit hash
// index over the IDs with a collision-confirming equality check, so no
// operation on the hot path allocates or hashes strings (see rows.go
// and DESIGN §10).
//
// A Relation may carry a Name for presentation (e.g. "GS" for the
// game/student relation of Example 3); the name plays no role in the
// algebra, which is driven purely by schemes, exactly as in the paper.
type Relation struct {
	name   string
	schema Schema
	dict   *Dict
	data   []uint32 // row-major ID slab, width = schema.Len()
	n      int      // row count (the slab width may be zero)
	// index is the lazy membership index, published atomically because
	// shared (memoized) relations answer membership questions from
	// concurrent searchers; see ensureIndex.
	index atomic.Pointer[rowIndex]
	// partitions records how many hash partitions the parallel join
	// used to build this state (0: built sequentially).
	partitions int
}

// New creates an empty relation state over the given scheme, interning
// through the process-wide shared dictionary.
func New(name string, schema Schema) *Relation {
	return NewIn(nil, name, schema)
}

// NewIn creates an empty relation state interning through the given
// dictionary; nil selects the process-wide shared dictionary. Loaders
// that build a whole database pass one Dict so the database's relations
// share an ID space and can be dropped together.
func NewIn(dict *Dict, name string, schema Schema) *Relation {
	if dict == nil {
		dict = sharedDict
	}
	return &Relation{name: name, schema: schema, dict: dict}
}

// FromTuples creates a relation state containing the given tuples. Each
// tuple must be defined on exactly the schema's attributes.
func FromTuples(name string, schema Schema, tuples ...Tuple) *Relation {
	r := New(name, schema)
	for _, t := range tuples {
		r.Insert(t)
	}
	return r
}

// FromRows creates a relation from positional rows, each giving values in
// the schema's sorted attribute order.
func FromRows(name string, schema Schema, rows ...[]Value) *Relation {
	r := New(name, schema)
	for _, row := range rows {
		r.InsertRow(row)
	}
	return r
}

// FromStrings creates a relation over a compact single-rune scheme, with
// each row given as space-separated values, e.g.
//
//	FromStrings("R1", "AB", "p 0", "q 0")
//
// mirroring how the paper's examples present their states.
func FromStrings(name, schema string, rows ...string) *Relation {
	sch := SchemaFromString(schema)
	r := New(name, sch)
	for _, line := range rows {
		fields := strings.Fields(line)
		if len(fields) != sch.Len() {
			panic(fmt.Sprintf("relation: row %q has %d values, schema %s needs %d",
				line, len(fields), sch, sch.Len()))
		}
		vals := make([]Value, len(fields))
		for i, f := range fields {
			vals[i] = Value(f)
		}
		r.InsertRow(vals)
	}
	return r
}

// Name returns the relation's presentation name.
func (r *Relation) Name() string { return r.name }

// WithName returns a shallow copy of the relation carrying a new name.
// The row storage is shared; relations are treated as immutable once
// handed out, so sharing is safe. (Field-by-field rather than a struct
// copy: the atomic index pointer must not be copied by value.)
func (r *Relation) WithName(name string) *Relation {
	cp := &Relation{name: name, schema: r.schema, dict: r.dict,
		data: r.data, n: r.n, partitions: r.partitions}
	cp.index.Store(r.index.Load())
	return cp
}

// Schema returns the relation's scheme.
func (r *Relation) Schema() Schema { return r.schema }

// Dict returns the dictionary the relation's rows are encoded against.
func (r *Relation) Dict() *Dict { return r.dict }

// JoinPartitions reports how many hash partitions the parallel
// partitioned join used to build this state; 0 means it was built
// sequentially (small inputs, or not a join result at all).
func (r *Relation) JoinPartitions() int { return r.partitions }

// Size is the paper's τ(R): the number of tuples in the state.
func (r *Relation) Size() int { return r.n }

// Empty reports whether the state has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// Insert adds a tuple to the state (a no-op if an equal tuple is already
// present). The tuple must be defined on at least the schema's
// attributes; extra attributes are ignored, so inserting a projection
// source tuple works naturally.
func (r *Relation) Insert(t Tuple) {
	var scratch [scratchWidth]uint32
	buf := scratch[:]
	if r.schema.Len() > scratchWidth {
		buf = make([]uint32, r.schema.Len())
	}
	for i, a := range r.schema.Attrs() {
		v, ok := t[a]
		if !ok {
			panic(fmt.Sprintf("relation %s: tuple %v missing attribute %s", r.name, t, a))
		}
		buf[i] = r.dict.ID(v)
	}
	r.insertIDs(buf[:r.schema.Len()])
}

// InsertRow adds a positional row (values in sorted attribute order).
// The argument is not retained: the values are interned and the IDs
// copied into the slab.
func (r *Relation) InsertRow(row []Value) {
	if len(row) != r.schema.Len() {
		panic(fmt.Sprintf("relation %s: row width %d, schema width %d", r.name, len(row), r.schema.Len()))
	}
	var scratch [scratchWidth]uint32
	buf := scratch[:]
	if len(row) > scratchWidth {
		buf = make([]uint32, len(row))
	}
	r.internRow(row, buf)
}

// Contains reports whether the state contains a tuple equal to t on the
// relation's schema.
func (r *Relation) Contains(t Tuple) bool {
	var scratch [scratchWidth]uint32
	buf := scratch[:]
	if r.schema.Len() > scratchWidth {
		buf = make([]uint32, r.schema.Len())
	}
	for i, a := range r.schema.Attrs() {
		v, ok := t[a]
		if !ok {
			return false
		}
		id, ok := r.dict.Lookup(v)
		if !ok {
			return false
		}
		buf[i] = id
	}
	r.ensureIndex()
	return r.lookupIDs(buf[:r.schema.Len()]) >= 0
}

// Tuples returns the state's tuples as maps, in insertion order. The
// returned tuples are fresh copies.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	attrs := r.schema.Attrs()
	vals := r.dict.snapshot()
	for i := 0; i < r.n; i++ {
		row := r.rowIDs(i)
		t := make(Tuple, len(attrs))
		for j, a := range attrs {
			t[a] = vals[row[j]]
		}
		out[i] = t
	}
	return out
}

// Rows returns the positional rows in insertion order, decoded from the
// ID slab. The rows are fresh copies; mutating them does not affect the
// relation.
func (r *Relation) Rows() [][]Value {
	out := make([][]Value, r.n)
	vals := r.dict.snapshot()
	w := r.schema.Len()
	flat := make([]Value, r.n*w)
	for i := 0; i < r.n; i++ {
		row := flat[i*w : i*w+w]
		for j, id := range r.rowIDs(i) {
			row[j] = vals[id]
		}
		out[i] = row
	}
	return out
}

// Equal reports whether two relations have the same scheme and the same
// set of tuples (names are ignored).
func (r *Relation) Equal(s *Relation) bool {
	if !r.schema.Equal(s.schema) || r.n != s.n {
		return false
	}
	return r.subset(s)
}

// SubsetOf reports whether every tuple of r appears in s. The schemes
// must be equal for the answer to be meaningful; differing schemes report
// false.
func (r *Relation) SubsetOf(s *Relation) bool {
	if !r.schema.Equal(s.schema) {
		return false
	}
	return r.subset(s)
}

// subset reports row containment over equal schemes, translating
// between dictionaries when the relations do not share one.
func (r *Relation) subset(s *Relation) bool {
	if r.n == 0 {
		return true
	}
	s.ensureIndex()
	if r.dict == s.dict {
		for i := 0; i < r.n; i++ {
			if s.lookupIDs(r.rowIDs(i)) < 0 {
				return false
			}
		}
		return true
	}
	tr := newTranslator(r.dict, s.dict, false)
	buf := make([]uint32, r.schema.Len())
	for i := 0; i < r.n; i++ {
		ids, ok := tr.row(r.rowIDs(i), buf)
		if !ok || s.lookupIDs(ids) < 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the relation (sharing the dictionary,
// which is append-only).
func (r *Relation) Clone() *Relation {
	cp := NewIn(r.dict, r.name, r.schema)
	cp.data = append([]uint32(nil), r.data...)
	cp.n = r.n
	return cp
}

// sortedRows returns the rows in canonical (lexicographic) order, for
// deterministic printing.
func (r *Relation) sortedRows() [][]Value {
	out := r.Rows()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// String renders the relation as a small table, in the style of the
// paper's example states.
func (r *Relation) String() string {
	var b strings.Builder
	if r.name != "" {
		b.WriteString(r.name)
	}
	b.WriteString(r.schema.String())
	b.WriteString("{")
	for i, row := range r.sortedRows() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(v))
		}
		b.WriteByte(')')
	}
	b.WriteString("}")
	return b.String()
}
