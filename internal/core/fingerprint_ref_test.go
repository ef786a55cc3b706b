package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/relation"
)

// fingerprintReference is FingerprintDB as it was before the statistics
// moved onto the ID slabs: each column's distinct count from a string
// set over Rows().
func fingerprintReference(db *database.Database) Fingerprint {
	shape := fnvInt(fnvOffset, db.Len())
	stats := fnvInt(fnvOffset, db.Len())
	for i := 0; i < db.Len(); i++ {
		r := db.Relation(i)
		attrs := r.Schema().Attrs()
		shape = fnvInt(shape, len(attrs))
		for _, a := range attrs {
			shape = fnvString(shape, string(a))
		}
		stats = fnvInt(stats, r.Size())
		for col := range attrs {
			distinct := make(map[relation.Value]struct{})
			for _, row := range r.Rows() {
				distinct[row[col]] = struct{}{}
			}
			stats = fnvInt(stats, len(distinct))
		}
	}
	return Fingerprint{Shape: shape, Stats: stats}
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

func TestFingerprintDBMatchesReference(t *testing.T) {
	for name, db := range referenceDatabases(t) {
		if got, want := FingerprintDB(db), fingerprintReference(db); got != want {
			t.Errorf("%s: fingerprint %v, reference %v", name, got, want)
		}
	}
}
