package estimate

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/hypergraph"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
)

// Reference catalogs: the string-based statistics passes the catalogs
// used before they read column histograms off the ID slabs — distinct
// counts by projecting each attribute, histograms from string maps over
// Rows(), sorted by value and merged pairwise on every Size. The
// catalogs built either way must be identical, down to the bits of
// every Size.

func newCatalogReference(db *database.Database) *Catalog {
	c := NewCatalog(db) // the attribute universe and scratch; statistics are overwritten
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		for _, a := range r.Schema().Attrs() {
			c.distinct[i][c.index[a]] = float64(relation.Project(r, relation.NewSchema(a)).Size())
		}
	}
	return c
}

// valCount is one reference histogram bucket: a value and its tuple
// frequency.
type valCount struct {
	v relation.Value
	c float64
}

// histogramReference is the histogram catalog as it was before the
// match table: freq[i][pos] is relation i's histogram on universe
// position pos, sorted by value, and every selectivity is a two-pointer
// merge of two histograms.
type histogramReference struct {
	*Catalog
	freq   [][][]valCount
	seenBy []int
}

func newHistogramCatalogReference(db *database.Database) *histogramReference {
	h := &histogramReference{Catalog: newCatalogReference(db), freq: make([][][]valCount, db.Len())}
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		counts := make([]map[relation.Value]float64, len(attrs))
		for j := range counts {
			counts[j] = make(map[relation.Value]float64)
		}
		for _, row := range r.Rows() {
			for j := range attrs {
				counts[j][row[j]]++
			}
		}
		h.freq[i] = make([][]valCount, len(h.attrs))
		for j, a := range attrs {
			buckets := make([]valCount, 0, len(counts[j]))
			for v, c := range counts[j] {
				buckets = append(buckets, valCount{v: v, c: c})
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

func (h *histogramReference) Size(s hypergraph.Set) float64 {
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

func (h *histogramReference) pairSelectivity(pos, j, i int) float64 {
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

// referenceDatabases returns the committed corpus plus generated
// uniform and Zipf databases over every generator shape, a database
// whose relations intern through different dictionaries, and one
// holding an empty relation.
func referenceDatabases(t *testing.T) map[string]*database.Database {
	dbs := make(map[string]*database.Database)
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		db, err := database.DecodeJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		dbs[filepath.Base(p)] = db
	}
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Cycle, gen.Clique} {
		schemes := gen.Schemes(shape, 5)
		dbs["uniform "+shape.String()] = gen.Uniform(rng, schemes, 60, 12)
		dbs["zipf "+shape.String()] = gen.Zipf(rng, schemes, 60, 40, 1.3)
	}

	// Relations 0 and 1 share a dictionary of their own, relation 2
	// interns through the process-wide one, 3 and 4 have one each. The
	// values are renamed, so no dictionary holds another's values
	// beforehand and a catalog interning into one would grow it. Rows
	// are interned in reverse order, so IDs follow neither value order
	// nor the other dictionaries.
	zipf := gen.Zipf(rng, gen.Schemes(gen.Clique, 5), 60, 40, 1.3)
	pair := relation.NewDict()
	mixed := make([]*relation.Relation, zipf.Len())
	for i, r := range zipf.Relations() {
		var d *relation.Dict // nil: the process-wide dictionary
		switch i {
		case 0, 1:
			d = pair
		case 3, 4:
			d = relation.NewDict()
		}
		mixed[i] = relation.NewIn(d, r.Name(), r.Schema())
		rows := r.Rows()
		for k := len(rows) - 1; k >= 0; k-- {
			row := make([]relation.Value, len(rows[k]))
			for j, v := range rows[k] {
				row[j] = "mixed " + v
			}
			mixed[i].InsertRow(row)
		}
	}
	dbs["mixed dictionaries"] = database.New(mixed...)

	withEmpty := gen.Zipf(rng, gen.Schemes(gen.Star, 5), 60, 12, 1.3).Relations()
	withEmpty[2] = relation.New(withEmpty[2].Name(), withEmpty[2].Schema())
	dbs["empty relation"] = database.New(withEmpty...)
	return dbs
}

// sameSizes reports the first subset whose two estimates differ in any
// bit, or ok.
func sameSizes(db *database.Database, got, want func(hypergraph.Set) float64) (hypergraph.Set, bool) {
	for s := hypergraph.Set(1); s <= hypergraph.Full(db.Len()); s++ {
		if math.Float64bits(got(s)) != math.Float64bits(want(s)) {
			return s, false
		}
	}
	return 0, true
}

// samePlans reports whether the full-space model DP picks the same
// strategy, with a bit-identical estimate, under both size models.
func samePlans(t *testing.T, db *database.Database, got, want optimizer.SizeModel) bool {
	g, err := optimizer.OptimizeModel(db, got, optimizer.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	w, err := optimizer.OptimizeModel(db, want, optimizer.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	return g.Strategy.String() == w.Strategy.String() && math.Float64bits(g.Est) == math.Float64bits(w.Est)
}

func TestCatalogsMatchReference(t *testing.T) {
	for name, db := range referenceDatabases(t) {
		c, ref := NewCatalog(db), newCatalogReference(db)
		if !reflect.DeepEqual(c.distinct, ref.distinct) {
			t.Errorf("%s: distinct counts %v, reference %v", name, c.distinct, ref.distinct)
		}
		if s, ok := sameSizes(db, c.Size, ref.Size); !ok {
			t.Errorf("%s: Catalog.Size(%v) = %v, reference %v", name, s, c.Size(s), ref.Size(s))
		}

		dictLens := make([]int, db.Len())
		for i, r := range db.Relations() {
			dictLens[i] = r.Dict().Len()
		}
		h := NewHistogramCatalog(db)
		for i, r := range db.Relations() {
			if got := r.Dict().Len(); got != dictLens[i] {
				t.Errorf("%s: relation %d's dictionary grew from %d to %d values", name, i, dictLens[i], got)
			}
		}
		href := newHistogramCatalogReference(db)
		if !reflect.DeepEqual(h.distinct, href.distinct) {
			t.Errorf("%s: histogram catalog's distinct counts differ from the reference", name)
		}
		if s, ok := sameSizes(db, h.Size, href.Size); !ok {
			t.Errorf("%s: HistogramCatalog.Size(%v) = %v, reference %v", name, s, h.Size(s), href.Size(s))
		}
		if !samePlans(t, db, h.Size, href.Size) {
			t.Errorf("%s: OptimizeModel over HistogramCatalog differs from the reference", name)
		}
	}
}
