package core

import (
	"strings"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

func TestPlanExprRoundTrip(t *testing.T) {
	db := paperex.Example1() // 4 relations
	for _, expr := range []string{
		"(((0 1) 2) 3)",
		"((0 1) (2 3))",
		"((3 0) (1 2))",
	} {
		s, err := Plan{Expr: expr}.Strategy(db)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if got := EncodePlanExpr(s); got != expr {
			t.Errorf("round trip %s → %s", expr, got)
		}
	}
}

func TestPlanRejectsMalformedExprs(t *testing.T) {
	db := paperex.Example1()
	for _, expr := range []string{
		"",          // empty
		"(0 1",      // unclosed
		"(0 0)",     // duplicate leaf
		"(0 1) 2",   // trailing garbage
		"((0 1) 9)", // index out of range
		"((0 1) 2)", // incomplete cover (4 relations)
		"(0 (1 x))", // non-numeric leaf
		"()",        // empty pair
		"(((0 1) 2) 3) extra",
	} {
		if _, err := (Plan{Expr: expr}).Strategy(db); err == nil {
			t.Errorf("plan %q accepted", expr)
		}
	}
}

func TestPlanNameFree(t *testing.T) {
	db := paperex.Example1()
	best := strategy.MustParse(db, "((R1 R2) (R3 R4))")
	p := Plan{Expr: EncodePlanExpr(best)}
	if strings.ContainsAny(p.Expr, "R") {
		t.Fatalf("plan expr leaks relation names: %q", p.Expr)
	}
	back, err := p.Strategy(db)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(best) {
		t.Fatalf("plan round trip changed the tree: %s vs %s", back, best)
	}
}

// fingerDB builds a tiny named database from rows for fingerprint tests.
func fingerDB(t *testing.T, rows1, rows2 [][]string) *database.Database {
	t.Helper()
	mk := func(name, attrs string, rows [][]string) *relation.Relation {
		r := relation.New(name, relation.SchemaFromString(attrs))
		for _, row := range rows {
			vals := make([]relation.Value, len(row))
			for i, v := range row {
				vals[i] = relation.Value(v)
			}
			r.InsertRow(vals)
		}
		return r
	}
	return database.New(mk("R1", "AB", rows1), mk("R2", "BC", rows2))
}

func TestFingerprintInvariance(t *testing.T) {
	base := fingerDB(t, [][]string{{"a", "1"}, {"b", "2"}}, [][]string{{"1", "x"}})
	same := fingerDB(t, [][]string{{"a", "1"}, {"b", "2"}}, [][]string{{"1", "x"}})
	if FingerprintDB(base) != FingerprintDB(same) {
		t.Fatal("identical databases fingerprint differently")
	}

	// Data changes move the stats digest but not the shape digest.
	grown := fingerDB(t, [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}, [][]string{{"1", "x"}})
	fb, fg := FingerprintDB(base), FingerprintDB(grown)
	if fb.Shape != fg.Shape {
		t.Fatal("data change moved the shape digest")
	}
	if fb.Stats == fg.Stats {
		t.Fatal("data change did not move the stats digest")
	}

	// Same cardinalities, different distinct counts: still a stats move —
	// the estimator would plan differently.
	skew := fingerDB(t, [][]string{{"a", "1"}, {"b", "1"}}, [][]string{{"1", "x"}})
	if FingerprintDB(base).Stats == FingerprintDB(skew).Stats {
		t.Fatal("distinct-count change did not move the stats digest")
	}

	// Shape changes (different attribute sets) move the shape digest.
	other := database.New(
		relation.New("R1", relation.SchemaFromString("AB")),
		relation.New("R2", relation.SchemaFromString("BD")),
	)
	if FingerprintDB(base).Shape == FingerprintDB(other).Shape {
		t.Fatal("schema change did not move the shape digest")
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := fingerDB(t, [][]string{{"a", "1"}}, [][]string{{"1", "x"}})
	b := database.New(
		relation.New("Left", relation.SchemaFromString("AB")),
		relation.New("Right", relation.SchemaFromString("BC")),
	)
	b.Relation(0).InsertRow([]relation.Value{"a", "1"})
	b.Relation(1).InsertRow([]relation.Value{"1", "x"})
	if FingerprintDB(a) != FingerprintDB(b) {
		t.Fatal("renaming relations changed the fingerprint")
	}
}
