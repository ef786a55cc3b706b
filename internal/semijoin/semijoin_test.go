package semijoin

import (
	"errors"
	"math/rand"
	"testing"

	"multijoin/internal/conditions"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/relation"
)

func chainDB() *database.Database {
	// Dangling tuples everywhere: 2 of 3 rows in each relation survive
	// reduction.
	r1 := relation.FromStrings("R1", "AB", "1 x", "2 y", "3 z")
	r2 := relation.FromStrings("R2", "BC", "x 7", "y 8", "w 9")
	r3 := relation.FromStrings("R3", "CD", "7 p", "8 q", "0 r")
	return database.New(r1, r2, r3)
}

func TestPairwiseConsistent(t *testing.T) {
	if PairwiseConsistent(chainDB()) {
		t.Fatal("chainDB has dangling tuples")
	}
	consistent := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
	)
	if !PairwiseConsistent(consistent) {
		t.Fatal("expected consistent")
	}
	// Disjoint schemes are ignored.
	disj := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "CD", "7 p", "8 q"),
	)
	if !PairwiseConsistent(disj) {
		t.Fatal("disjoint pairs are vacuously consistent")
	}
}

func TestFullReduce(t *testing.T) {
	db := chainDB()
	red, err := FullReduce(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reduced := red.Database
	if !PairwiseConsistent(reduced) {
		t.Fatal("full reduction must yield pairwise consistency")
	}
	// The full join is unchanged.
	before := database.NewEvaluator(db).Result()
	after := database.NewEvaluator(reduced).Result()
	if !before.Equal(after) {
		t.Fatalf("R_D changed: %v vs %v", before, after)
	}
	// Dangling tuples are gone: each relation shrinks to 2 rows.
	for i := 0; i < reduced.Len(); i++ {
		if got := reduced.Relation(i).Size(); got != 2 {
			t.Errorf("relation %d: %d rows after reduction, want 2", i, got)
		}
	}
	// Input untouched.
	if db.Relation(0).Size() != 3 {
		t.Fatal("FullReduce must not modify its input")
	}
}

func TestFullReduceErrorsOnCyclicOrUnconnected(t *testing.T) {
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	if _, err := FullReduce(cyc, nil, nil); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("want ErrNotAcyclic, got %v", err)
	}
	if _, err := FullReduce(database.New(), nil, nil); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("empty database: want ErrNotAcyclic, got %v", err)
	}
	// An unconnected acyclic scheme reduces component by component.
	unconn := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "DE", "7 p"),
	)
	red, err := FullReduce(unconn, nil, nil)
	if err != nil {
		t.Fatalf("unconnected acyclic scheme: %v", err)
	}
	if len(red.Trees) != 2 || red.Database.Relation(0).Size() != 1 {
		t.Fatalf("want two trees and R1 reduced to 1 row, got %d trees, %d rows",
			len(red.Trees), red.Database.Relation(0).Size())
	}
}

func TestFullReduceSingleRelation(t *testing.T) {
	db := database.New(relation.FromStrings("R", "AB", "1 x"))
	red, err := FullReduce(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !red.Database.Relation(0).Equal(db.Relation(0)) {
		t.Fatal("single relation should be unchanged")
	}
}

func TestFullReduceRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		db := gen.Uniform(rng, gen.Schemes(gen.Chain, 2+rng.Intn(4)), 5, 3)
		red, err := FullReduce(db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reduced := red.Database
		if !PairwiseConsistent(reduced) {
			t.Fatalf("trial %d: not pairwise consistent", trial)
		}
		before := database.NewEvaluator(db).Result()
		after := database.NewEvaluator(reduced).Result()
		if !before.Equal(after) {
			t.Fatalf("trial %d: full join changed", trial)
		}
		for i := 0; i < db.Len(); i++ {
			if !reduced.Relation(i).SubsetOf(db.Relation(i)) {
				t.Fatalf("trial %d: reduction added tuples", trial)
			}
		}
	}
}

func TestReducedAcyclicSatisfiesC4(t *testing.T) {
	// Section 5: an acyclic (join-tree-connected) pairwise-consistent
	// database satisfies C4 — with the paper's caveat that on chains
	// ordinary connectedness coincides with the join-tree notion, so C4
	// can be checked with the stock checker.
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 50; trial++ {
		db := gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 5, 3)
		red, err := FullReduce(db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reduced := red.Database
		ev := database.NewEvaluator(reduced)
		if ev.Result().Empty() {
			continue
		}
		checked++
		if rep := conditions.Check(ev, conditions.C4); !rep.Holds {
			t.Fatalf("trial %d: reduced acyclic database violates C4: %v", trial, rep.Witness)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d trials had nonempty results", checked)
	}
}

func TestYannakakis(t *testing.T) {
	db := chainDB()
	ev, err := YannakakisGuarded(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	result, sizes := ev.Result, ev.JoinSizes
	naive := database.NewEvaluator(db).Result()
	if !result.Equal(naive) {
		t.Fatalf("Yannakakis result differs: %v vs %v", result, naive)
	}
	// Every intermediate bounded by the output size.
	for i, s := range sizes {
		if s > naive.Size() {
			t.Fatalf("intermediate %d has %d tuples > output %d", i, s, naive.Size())
		}
	}
	if len(sizes) != db.Len()-1 {
		t.Fatalf("%d join steps, want %d", len(sizes), db.Len()-1)
	}
}

func TestYannakakisRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		db := gen.Uniform(rng, gen.Schemes(gen.Chain, 3+rng.Intn(3)), 6, 3)
		ev, err := YannakakisGuarded(db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		result, sizes := ev.Result, ev.JoinSizes
		naive := database.NewEvaluator(db).Result()
		if !result.Equal(naive) {
			t.Fatalf("trial %d: result mismatch", trial)
		}
		for _, s := range sizes {
			if s > naive.Size() {
				t.Fatalf("trial %d: intermediate %d exceeds output %d", trial, s, naive.Size())
			}
		}
	}
}

func TestYannakakisErrorsOnCyclic(t *testing.T) {
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	if _, err := YannakakisGuarded(cyc, nil, nil); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("want ErrNotAcyclic, got %v", err)
	}
}

func TestReduceToConsistency(t *testing.T) {
	// Works even on cyclic schemes.
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7", "z 8"),
		relation.FromStrings("R3", "CA", "7 1", "9 5"),
	)
	out, err := ReduceToConsistency(cyc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !PairwiseConsistent(out) {
		t.Fatal("expected pairwise consistency")
	}
	for i := 0; i < cyc.Len(); i++ {
		if !out.Relation(i).SubsetOf(cyc.Relation(i)) {
			t.Fatal("reduction added tuples")
		}
	}
}

func TestSemijoinProgramSize(t *testing.T) {
	if n, err := SemijoinProgramSize(chainDB()); err != nil || n != 4 {
		t.Fatalf("program size = %d, %v; want 4", n, err)
	}
	single := database.New(relation.FromStrings("R", "AB", "1 x"))
	if n, err := SemijoinProgramSize(single); err != nil || n != 0 {
		t.Fatalf("single relation program size = %d, %v", n, err)
	}
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	if _, err := SemijoinProgramSize(cyc); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("want ErrNotAcyclic, got %v", err)
	}
}

func TestFullReduceComponents(t *testing.T) {
	// Two independent chains; each must reduce, cross-component tuples
	// untouched.
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y", "3 z"),
		relation.FromStrings("R2", "BC", "x 7", "y 8"),
		relation.FromStrings("R3", "DE", "d1 e1", "d2 e2"),
		relation.FromStrings("R4", "EF", "e1 f1"),
	)
	red, err := FullReduce(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reduced := red.Database
	if !PairwiseConsistent(reduced) {
		t.Fatal("components must be pairwise consistent after reduction")
	}
	if reduced.Relation(0).Size() != 2 || reduced.Relation(2).Size() != 1 {
		t.Fatalf("reduction sizes wrong: %d, %d",
			reduced.Relation(0).Size(), reduced.Relation(2).Size())
	}
	// The full join (a product of the component joins) is preserved.
	before := database.NewEvaluator(db).Result()
	after := database.NewEvaluator(reduced).Result()
	if !before.Equal(after) {
		t.Fatal("R_D changed")
	}
}

// TestFullReduceComponentsConnectedDelegates: on a connected scheme the
// component-wise reduction is one tree over every relation, and
// YannakakisGuarded reduces along exactly that tree.
func TestFullReduceComponentsConnectedDelegates(t *testing.T) {
	db := chainDB()
	a, err := FullReduce(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trees) != 1 || len(a.Trees[0].Order) != db.Len() || a.Semijoins != 2*(db.Len()-1) {
		t.Fatalf("connected scheme: %d trees, %d semijoins", len(a.Trees), a.Semijoins)
	}
	ev, err := YannakakisGuarded(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := ev.Reduction
	for i := 0; i < db.Len(); i++ {
		if !a.Database.Relation(i).Equal(b.Database.Relation(i)) {
			t.Fatal("component path must match connected path")
		}
	}
}

func TestFullReduceComponentsCyclicComponentFails(t *testing.T) {
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
		relation.FromStrings("R4", "DE", "d e"),
	)
	if _, err := FullReduce(db, nil, nil); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("want ErrNotAcyclic, got %v", err)
	}
}
