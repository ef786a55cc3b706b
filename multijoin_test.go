package multijoin_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multijoin"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build a database, check
	// conditions, optimize, compare subspaces.
	r1 := multijoin.RelationFromStrings("R1", "AB", "1 x", "2 y")
	r2 := multijoin.RelationFromStrings("R2", "BC", "x 7", "y 8")
	r3 := multijoin.RelationFromStrings("R3", "CD", "7 p", "8 q")
	db := multijoin.NewDatabase(r1, r2, r3)
	ev := multijoin.NewEvaluator(db)

	res, err := multijoin.Optimize(ev, multijoin.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy == nil || res.Cost <= 0 {
		t.Fatalf("unexpected result %+v", res)
	}
	lin, err := multijoin.Optimize(ev, multijoin.SpaceLinearNoCP)
	if err != nil {
		t.Fatal(err)
	}
	if lin.Cost < res.Cost {
		t.Fatal("restricted space cannot beat the full space")
	}
}

func TestPublicAPIAnalyzeExample5(t *testing.T) {
	db := multijoin.ExampleDatabase(5)
	an, err := multijoin.Analyze(db)
	if err != nil {
		t.Fatal(err)
	}
	var sawTheorem2 bool
	for _, c := range an.Certificates {
		if c.Theorem == multijoin.TheoremTwo {
			sawTheorem2 = true
		}
	}
	if !sawTheorem2 {
		t.Fatal("Example 5 should certify Theorem 2")
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExampleDatabases(t *testing.T) {
	for i := 1; i <= 5; i++ {
		if db := multijoin.ExampleDatabase(i); db.Len() < 3 {
			t.Errorf("example %d too small", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExampleDatabase(0) must panic")
		}
	}()
	multijoin.ExampleDatabase(0)
}

func TestPublicAPICounts(t *testing.T) {
	if got := multijoin.CountStrategies(4).Int64(); got != 15 {
		t.Fatalf("CountStrategies(4) = %d, want 15 (the paper's 3 + 12)", got)
	}
	if got := multijoin.CountLinearStrategies(4).Int64(); got != 12 {
		t.Fatalf("CountLinearStrategies(4) = %d, want 12", got)
	}
}

func TestPublicAPIConditionsAndRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := multijoin.GenerateDiagonal(rng, multijoin.GenerateSchemes(multijoin.ShapeChain, 4), 7, 0.6)
	ev := multijoin.NewEvaluator(db)
	if rep := multijoin.CheckCondition(ev, multijoin.C3); !rep.Holds {
		t.Fatalf("diagonal database should satisfy C3: %v", rep.Witness)
	}
	s := multijoin.Combine(
		multijoin.Combine(multijoin.Leaf(0), multijoin.Leaf(2)),
		multijoin.Combine(multijoin.Leaf(1), multijoin.Leaf(3)))
	nocp := multijoin.AvoidCPRewrite(ev, s)
	lin := multijoin.LinearizeRewrite(ev, nocp)
	if !lin.IsLinear() {
		t.Fatal("pipeline must linearize")
	}
	if lin.Cost(ev) > s.Cost(ev) {
		t.Fatal("pipeline must not increase τ under C3")
	}
}

func TestPublicAPIFDs(t *testing.T) {
	f, err := multijoin.ParseFD("B->C")
	if err != nil {
		t.Fatal(err)
	}
	cl := multijoin.Closure(multijoin.SchemaFromString("B"), []multijoin.FD{f})
	if cl.String() != "BC" {
		t.Fatalf("closure = %s", cl)
	}
	schemes := []multijoin.Schema{
		multijoin.SchemaFromString("AB"),
		multijoin.SchemaFromString("BC"),
	}
	if !multijoin.LosslessJoin(schemes, []multijoin.FD{f}) {
		t.Fatal("lossless under B->C")
	}
	if !multijoin.IsSuperkey(multijoin.SchemaFromString("B"), multijoin.SchemaFromString("BC"), []multijoin.FD{f}) {
		t.Fatal("B keys BC")
	}
}

func TestPublicAPISemijoinAndSetops(t *testing.T) {
	db := multijoin.NewDatabase(
		multijoin.RelationFromStrings("R1", "AB", "1 x", "2 y"),
		multijoin.RelationFromStrings("R2", "BC", "x 7"),
	)
	if multijoin.PairwiseConsistent(db) {
		t.Fatal("dangling tuple should break consistency")
	}
	reduced, err := multijoin.FullReduce(db)
	if err != nil {
		t.Fatal(err)
	}
	if !multijoin.PairwiseConsistent(reduced) {
		t.Fatal("reduction must restore consistency")
	}
	result, sizes, err := multijoin.Yannakakis(db)
	if err != nil {
		t.Fatal(err)
	}
	if result.Size() != 1 || len(sizes) != 1 {
		t.Fatalf("yannakakis: %v, %v", result, sizes)
	}

	a := multijoin.RelationFromStrings("A", "X", "1", "2")
	b := multijoin.RelationFromStrings("B", "X", "2", "3")
	if multijoin.IntersectAll(a, b).Size() != 1 || multijoin.UnionAll(a, b).Size() != 3 {
		t.Fatal("set operations wrong")
	}
}

func TestPublicAPIPluckGraft(t *testing.T) {
	s := multijoin.LeftDeep(0, 1, 2)
	rem, sub, err := multijoin.Pluck(s, multijoin.Set(1)<<2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := multijoin.Graft(rem, sub, rem.Set())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatal("pluck/graft round trip failed")
	}
}

func TestPublicAPIEnumerate(t *testing.T) {
	count := 0
	multijoin.EnumerateStrategies(multijoin.Set(0b1111), func(*multijoin.Strategy) bool {
		count++
		return true
	})
	if count != 15 {
		t.Fatalf("enumerated %d, want 15", count)
	}
}

func TestPublicAPIGreedy(t *testing.T) {
	db := multijoin.ExampleDatabase(1)
	ev := multijoin.NewEvaluator(db)
	res := multijoin.GreedySmallestResult(ev)
	if res.Strategy == nil {
		t.Fatal("greedy returned nothing")
	}
	all, err := multijoin.Optimize(ev, multijoin.SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < all.Cost {
		t.Fatal("greedy cannot beat the optimum")
	}
}

func TestPublicAPIZipfAndUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	schemes := multijoin.GenerateSchemes(multijoin.ShapeStar, 3)
	u := multijoin.GenerateUniform(rng, schemes, 4, 3)
	z := multijoin.GenerateZipf(rng, schemes, 10, 10, 1.7)
	if u.Len() != 3 || z.Len() != 3 {
		t.Fatal("generators wrong")
	}
}

func TestPublicAPIResourceGovernance(t *testing.T) {
	db := multijoin.ExampleDatabase(5)

	// Generous budgets: analysis completes and is marked complete.
	g := multijoin.NewGuard(context.Background(),
		multijoin.GuardLimits{MaxTuples: 1 << 20, MaxStates: 1 << 20})
	an, err := multijoin.AnalyzeGuarded(db, g)
	if err != nil || !an.Complete() {
		t.Fatalf("governed analysis failed: err=%v truncated=%v", err, an.Truncated)
	}
	if err := multijoin.VerifyCertificates(an); err != nil {
		t.Fatal(err)
	}

	// A one-tuple budget trips with the exported sentinel and typed error.
	tight := multijoin.NewGuard(context.Background(), multijoin.GuardLimits{MaxTuples: 1})
	_, err = multijoin.AnalyzeGuarded(db, tight)
	if !errors.Is(err, multijoin.ErrBudgetExceeded) || !multijoin.Tripped(err) {
		t.Fatalf("want exported budget sentinel, got %v", err)
	}
	var be *multijoin.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want typed tuple budget error, got %v", err)
	}

	// Guarded optimize and greedy on a governed evaluator.
	ev := multijoin.NewEvaluator(db).WithGuard(multijoin.NewGuard(context.Background(), multijoin.GuardLimits{}))
	if _, err := multijoin.OptimizeGuarded(ev, multijoin.SpaceAll); err != nil {
		t.Fatal(err)
	}
	if _, err := multijoin.GreedyGuarded(ev); err != nil {
		t.Fatal(err)
	}

	// A cancelled context aborts the analysis with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = multijoin.AnalyzeGuarded(db, multijoin.NewGuard(ctx, multijoin.GuardLimits{}))
	if !errors.Is(err, context.Canceled) || !multijoin.Tripped(err) {
		t.Fatalf("want cancellation, got %v", err)
	}
}
