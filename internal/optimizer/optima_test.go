package optimizer

import (
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/paperex"
	"multijoin/internal/strategy"
)

func TestOptimaExample5Unique(t *testing.T) {
	// "There is only one τ-optimum strategy" (Example 5).
	db := paperex.Example5()
	ev := database.NewEvaluator(db)
	opts, err := Optima(ev, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 1 {
		t.Fatalf("Example 5's optimum should be unique, got %d optima", len(opts))
	}
	want := strategy.Combine(
		strategy.Combine(strategy.Leaf(0), strategy.Leaf(1)),
		strategy.Combine(strategy.Leaf(2), strategy.Leaf(3)))
	if !opts[0].Equal(want) {
		t.Fatalf("unique optimum = %s", opts[0].Render(db))
	}
}

func TestOptimaExample3AllThree(t *testing.T) {
	// Example 3: all three strategies are τ-optimum.
	db := paperex.Example3()
	ev := database.NewEvaluator(db)
	opts, err := Optima(ev, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 3 {
		t.Fatalf("got %d optima, want 3", len(opts))
	}
}

func TestOptimaAllAttainTheDPCost(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 4)
		ev := database.NewEvaluator(db)
		for _, sp := range []Space{SpaceAll, SpaceLinear, SpaceNoCP} {
			res, err := Optimize(ev, sp)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := Optima(ev, sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(opts) == 0 {
				t.Fatalf("%s: no optima returned", sp)
			}
			for _, o := range opts {
				if o.Cost(ev) != res.Cost {
					t.Fatalf("%s: optimum with wrong cost", sp)
				}
			}
		}
	}
}

func TestOptimaLinearNoCPEmpty(t *testing.T) {
	db := database.New(
		paperex.Example1().Relation(0), // AB
		paperex.Example1().Relation(1), // BC
	)
	ev := database.NewEvaluator(db)
	opts, err := Optima(ev, SpaceLinearNoCP)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) == 0 {
		t.Fatal("two linked relations have a linear no-CP optimum")
	}
}
