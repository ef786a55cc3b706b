package database

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

func exampleDB() *Database {
	// Example 1 of the paper.
	r1 := relation.FromStrings("R1", "AB", "p 0", "q 0", "r 0", "s 1")
	r2 := relation.FromStrings("R2", "BC", "0 w", "0 x", "0 y", "1 z")
	r3 := relation.FromStrings("R3", "DE",
		"1 1", "2 2", "3 3", "4 4", "5 5", "6 6", "7 7")
	r4 := relation.FromStrings("R4", "FG",
		"1 1", "2 2", "3 3", "4 4", "5 5", "6 6", "7 7")
	return New(r1, r2, r3, r4)
}

func TestDatabaseBasics(t *testing.T) {
	db := exampleDB()
	if db.Len() != 4 {
		t.Fatalf("len = %d", db.Len())
	}
	if db.Scheme(0).String() != "AB" {
		t.Fatalf("scheme 0 = %s", db.Scheme(0))
	}
	if db.IndexOfName("R3") != 2 {
		t.Fatal("IndexOfName failed")
	}
	if db.IndexOfName("nope") != -1 {
		t.Fatal("IndexOfName should return -1")
	}
	if db.SetOf("R1", "R2") != 0b0011 {
		t.Fatalf("SetOf = %v", db.SetOf("R1", "R2"))
	}
	if err := db.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if db.Connected() {
		t.Fatal("Example 1's scheme is unconnected")
	}
}

func TestValidateErrors(t *testing.T) {
	if err := New().Validate(); err == nil {
		t.Fatal("empty database must not validate")
	}
	dup := New(
		relation.FromStrings("R", "AB", "1 x"),
		relation.FromStrings("S", "AB", "2 y"),
	)
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate schemes must not validate")
	}
}

func TestSetOfPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	exampleDB().SetOf("missing")
}

func TestRestrict(t *testing.T) {
	db := exampleDB()
	sub := db.Restrict(db.SetOf("R1", "R3"))
	if sub.Len() != 2 || sub.Relation(0).Name() != "R1" || sub.Relation(1).Name() != "R3" {
		t.Fatalf("restrict wrong: %v", sub)
	}
}

func TestEvaluatorExample1Sizes(t *testing.T) {
	// All τ values quoted in Example 1.
	db := exampleDB()
	e := NewEvaluator(db)
	r12 := db.SetOf("R1", "R2")
	if got := e.Size(r12); got != 10 {
		t.Fatalf("τ(R1⋈R2) = %d, want 10", got)
	}
	if got := e.Size(db.SetOf("R3", "R4")); got != 49 {
		t.Fatalf("τ(R3⋈R4) = %d, want 49", got)
	}
	if got := e.Size(db.SetOf("R1", "R2", "R3")); got != 70 {
		t.Fatalf("τ(R1⋈R2⋈R3) = %d, want 70", got)
	}
	if got := e.Size(db.All()); got != 490 {
		t.Fatalf("τ(R_D) = %d, want 490", got)
	}
	if got := e.Size(db.SetOf("R1", "R3")); got != 28 {
		t.Fatalf("τ(R1⋈R3) = %d, want 28", got)
	}
	if !e.ResultNonEmpty() {
		t.Fatal("R_D should be nonempty")
	}
}

func TestEvaluatorMemoizes(t *testing.T) {
	db := exampleDB()
	e := NewEvaluator(db)
	a := e.Eval(db.All())
	before := e.MemoLen()
	b := e.Eval(db.All())
	if a != b {
		t.Fatal("memoized result should be identical pointer")
	}
	if e.MemoLen() != before {
		t.Fatal("second Eval should not add memo entries")
	}
}

// TestCartesianProductSizedWithoutTuples bounds the memory of sizing a
// Cartesian product: the product of two unlinked 2000-row relations has
// 4M rows, and its size is their sizes multiplied.
func TestCartesianProductSizedWithoutTuples(t *testing.T) {
	db := New(bigRel("R", "AB", 2000, 2000), bigRel("S", "CD", 2000, 2000))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := NewEvaluator(db).Size(db.All())
	runtime.ReadMemStats(&after)
	if n != 2000*2000 {
		t.Fatalf("τ(R×S) = %d, want %d", n, 2000*2000)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("sizing R×S allocated %d bytes, want under 64 KiB", got)
	}
}

// rowsRel returns a relation over the one-letter attributes of schema
// with the given number of rows; cell(i, a) is row i's value of a.
func rowsRel(name, schema string, rows int, cell func(i int, a relation.Attr) string) *relation.Relation {
	r := relation.New(name, relation.SchemaFromString(schema))
	for i := 0; i < rows; i++ {
		var row []relation.Value
		for _, a := range r.Schema().Attrs() {
			row = append(row, relation.Value(cell(i, a)))
		}
		r.InsertRow(row)
	}
	return r
}

// TestKnownEmptySetsJoinNothing sizes databases whose R_D is empty
// because of an empty relation or an empty join. A set that holds an
// empty relation, or whose rest S∖{min S} is empty, is recorded empty
// without a join; building the nonempty parts instead, as helper
// builds, would make 10^4 to 10^6 tuples. The ledger is the reference's
// either way.
func TestKnownEmptySetsJoinNothing(t *testing.T) {
	// fill gives attribute a the value consts[a] when set, else the row
	// number.
	fill := func(consts map[relation.Attr]string) func(int, relation.Attr) string {
		return func(j int, a relation.Attr) string {
			if v, ok := consts[a]; ok {
				return v
			}
			return fmt.Sprint(j)
		}
	}
	distinct := func(prefix string) func(int, relation.Attr) string {
		return func(j int, a relation.Attr) string { return fmt.Sprintf("%s%s%d", prefix, a, j) }
	}
	// R0, R1, R2 over {A, B, C, Y} meet in Y = "0": every pair joins to
	// 10^4 rows, all three to 10^6.
	y0 := fill(map[relation.Attr]string{"Y": "0"})
	spokes := []*relation.Relation{rowsRel("R0", "AY", 100, y0), rowsRel("R1", "BY", 100, y0), rowsRel("R2", "CY", 100, y0)}
	pq := fill(map[relation.Attr]string{"P": "p", "Q": "q"})
	cases := []struct {
		name    string
		rels    []*relation.Relation
		helpers int // uncharged entries sizing D may leave
	}{
		// An empty R3(Z) linked to nothing.
		{"empty relation", append(spokes[:3:3], relation.New("R3", relation.SchemaFromString("Z"))), 0},
		// R3(E, W) ⋈ R4(V, W) is empty: they share no W value.
		{"empty join", append(spokes[:3:3], rowsRel("R3", "EW", 100, distinct("x")), rowsRel("R4", "VW", 100, distinct("y"))), 0},
		// D is connected through R0(O, P, Q), but D∖{R0} falls apart
		// into the empty R1 ⋈ R2 and R3; sizing it helper-builds R1 ⋈ R2.
		// Joining D from a connected part would go through R0 ⋈ R1 ⋈ R3,
		// 10^6 rows.
		{"empty rest of a connected set", []*relation.Relation{
			rowsRel("R0", "OPQ", 100, pq), rowsRel("R1", "PW", 100, pq),
			rowsRel("R2", "VW", 100, distinct("y")), rowsRel("R3", "QU", 100, pq),
		}, 1},
		// D holds the empty R0(P, Q); D∖{R0} is nonempty but falls apart
		// into R1 ⋈ R2 ⋈ R4 (one row, built via R2 ⋈ R4) and R3. Joining
		// D from a connected part would go through R1 ⋈ R4, 10^4 rows.
		{"empty relation of a connected set", []*relation.Relation{
			relation.New("R0", relation.SchemaFromString("PQ")),
			rowsRel("R1", "APWY", 100, fill(map[relation.Attr]string{"P": "p", "Y": "0"})),
			relation.FromStrings("R2", "VW", "0 0"),
			relation.FromStrings("R3", "CQ", "c q"),
			rowsRel("R4", "DVY", 100, y0),
		}, 2},
	}
	for _, c := range cases {
		db := New(c.rels...)
		lim := guard.Limits{MaxTuples: 20_000}
		g, ref := guard.New(context.Background(), lim), guard.New(context.Background(), lim)
		ev := NewEvaluator(db).WithGuard(g)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := ev.Size(db.All())
		runtime.ReadMemStats(&after)
		if n != 0 {
			t.Fatalf("%s: τ(R_D) = %d, want 0", c.name, n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<10 {
			t.Errorf("%s: sizing D allocated %d bytes, want under 32 KiB", c.name, got)
		}
		helpers := 0
		for _, en := range ev.memo {
			if !en.charged {
				helpers++
			}
		}
		if helpers != c.helpers {
			t.Errorf("%s: %d helper builds, want %d", c.name, helpers, c.helpers)
		}
		NewReferenceEvaluator(db).WithGuard(ref).Size(db.All())
		if got, want := g.Snapshot(), ref.Snapshot(); got.Tuples != want.Tuples || got.States != want.States {
			t.Errorf("%s: ledger %+v, reference %+v", c.name, got, want)
		}
		if !ev.Result().Equal(NewReferenceEvaluator(db).Result()) {
			t.Errorf("%s: R_D differs from the reference", c.name)
		}
	}
}

func TestEvaluatorSingleton(t *testing.T) {
	db := exampleDB()
	e := NewEvaluator(db)
	if e.Eval(hypergraph.Singleton(0)) != db.Relation(0) {
		t.Fatal("singleton evaluation should return the base relation")
	}
}

func TestEvalPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEvaluator(exampleDB()).Eval(0)
}

func TestJoinSize(t *testing.T) {
	db := exampleDB()
	e := NewEvaluator(db)
	if got := e.JoinSize(db.SetOf("R1"), db.SetOf("R2")); got != 10 {
		t.Fatalf("JoinSize = %d, want 10", got)
	}
}

func TestJoinSizePanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db := exampleDB()
	NewEvaluator(db).JoinSize(0b011, 0b001)
}

func TestEvalOrderIndependent(t *testing.T) {
	// R_D must be the same no matter which memo order we force.
	db := exampleDB()
	e1 := NewEvaluator(db)
	full := e1.Eval(db.All())

	e2 := NewEvaluator(db)
	// Force a different materialization order.
	e2.Eval(db.SetOf("R2", "R4"))
	e2.Eval(db.SetOf("R1", "R3"))
	other := e2.Eval(db.All())
	if !full.Equal(other) {
		t.Fatal("R_D differs across evaluation orders")
	}
}

func TestStringSummary(t *testing.T) {
	got := exampleDB().String()
	if got == "" {
		t.Fatal("empty summary")
	}
}
