package conditions

import (
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
)

func TestCheckC4JoinTreeOnReducedAcyclic(t *testing.T) {
	// §5: every α-acyclic pairwise-consistent database satisfies C4
	// under join-tree connectedness.
	rng := rand.New(rand.NewSource(71))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		raw := gen.Uniform(rng, gen.Schemes(gen.Chain, 4), 5, 3)
		red, err := semijoin.FullReduce(raw, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ev := database.NewEvaluator(red.Database)
		if ev.Result().Empty() {
			continue
		}
		checked++
		if rep := CheckC4JoinTree(ev); !rep.Holds {
			t.Fatalf("trial %d: C4 (join-tree sense) violated: %v", trial, rep.Witness)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d nonempty trials", checked)
	}
}

func TestCheckC4JoinTreeDistinguishesFromPlainC4(t *testing.T) {
	// The {AB, BC, ABC} scheme: under ordinary connectedness {AB} and
	// {BC} are linked, so a shrinking AB⋈BC join breaks plain C4 — but
	// under join-tree connectedness they are not linked, so the pair is
	// exempt. Build a pairwise-consistent state where AB⋈BC shrinks.
	ab := relation.FromStrings("AB", "AB", "1 x", "2 y")
	bc := relation.FromStrings("BC", "BC", "x 7", "y 8")
	abc := relation.FromStrings("ABC", "ABC", "1 x 7", "2 y 8")
	db := database.New(ab, bc, abc)
	ev := database.NewEvaluator(db)
	if !semijoin.PairwiseConsistent(db) {
		t.Fatal("setup: state should be pairwise consistent")
	}
	if rep := CheckC4JoinTree(ev); !rep.Holds {
		t.Fatalf("join-tree C4 should hold on the consistent acyclic state: %v", rep.Witness)
	}
}

func TestCheckC4JoinTreeVacuousOnCyclic(t *testing.T) {
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	if rep := CheckC4JoinTree(database.NewEvaluator(cyc)); !rep.Holds {
		t.Fatal("cyclic schemes are out of scope: vacuously holds")
	}
}

func TestCheckC4JoinTreeFindsViolation(t *testing.T) {
	// An inconsistent chain: dangling tuples shrink the join, violating
	// C4 even in the join-tree sense (chain jt-connectivity = ordinary).
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y", "3 z"),
		relation.FromStrings("R2", "BC", "x 7"),
	)
	rep := CheckC4JoinTree(database.NewEvaluator(db))
	if rep.Holds {
		t.Fatal("expected a violation")
	}
	if rep.Witness == nil || rep.Witness.Left >= rep.Witness.Right {
		t.Fatalf("witness wrong: %+v", rep.Witness)
	}
}
