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
	"multijoin/internal/relation"
)

// Reference catalogs: the string-based statistics passes the catalogs
// used before they read column histograms off the ID slabs — distinct
// counts by projecting each attribute, histograms from string maps over
// Rows(). The catalogs built either way must be identical, down to the
// bits of every Size.

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

func newHistogramCatalogReference(db *database.Database) *HistogramCatalog {
	h := NewHistogramCatalog(db)
	h.Catalog = newCatalogReference(db)
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
	return h
}

// referenceDatabases returns the committed corpus plus generated
// uniform and Zipf databases over every generator shape.
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

func TestCatalogsMatchReference(t *testing.T) {
	for name, db := range referenceDatabases(t) {
		c, ref := NewCatalog(db), newCatalogReference(db)
		if !reflect.DeepEqual(c.distinct, ref.distinct) {
			t.Errorf("%s: distinct counts %v, reference %v", name, c.distinct, ref.distinct)
		}
		if s, ok := sameSizes(db, c.Size, ref.Size); !ok {
			t.Errorf("%s: Catalog.Size(%v) = %v, reference %v", name, s, c.Size(s), ref.Size(s))
		}
		h, href := NewHistogramCatalog(db), newHistogramCatalogReference(db)
		if !reflect.DeepEqual(h.freq, href.freq) || !reflect.DeepEqual(h.distinct, href.distinct) {
			t.Errorf("%s: histograms differ from the reference", name)
		}
		if s, ok := sameSizes(db, h.Size, href.Size); !ok {
			t.Errorf("%s: HistogramCatalog.Size(%v) = %v, reference %v", name, s, h.Size(s), href.Size(s))
		}
	}
}
