package semijoin

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// referenceResult folds the nested-loop oracle over every relation —
// the slow, obviously correct R_D the differential tests compare
// against. Cross products fall out of Merge on disjoint schemes.
func referenceResult(db *database.Database) *relation.Relation {
	out := db.Relation(0)
	for i := 1; i < db.Len(); i++ {
		out = relation.ReferenceJoin(out, db.Relation(i))
	}
	return out
}

// TestFullReduceGuardedLedgerEqualsSizes: on an untripped governed run
// the guard's tuple ledger is exactly the sum of the semijoin result
// sizes, and the plan.yannakakis.* counters mirror every ledger.
func TestFullReduceGuardedLedgerEqualsSizes(t *testing.T) {
	db := chainDB()
	g := guard.New(context.Background(), guard.Limits{})
	rec := obs.NewRecorder()
	red, err := FullReduce(db, g, rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range red.Sizes {
		sum += s
	}
	snap := g.Snapshot()
	if snap.Tuples.Spent != int64(sum) {
		t.Errorf("guard tuple ledger = %d, Σ semijoin sizes = %d", snap.Tuples.Spent, sum)
	}
	if red.Semijoins != 2*(db.Len()-1) {
		t.Errorf("semijoin program length = %d, want %d", red.Semijoins, 2*(db.Len()-1))
	}
	if got := rec.Counter(obs.MetricYannakakisTuples).Value(); got != snap.Tuples.Spent {
		t.Errorf("plan.yannakakis.tuples = %d, guard tuples = %d", got, snap.Tuples.Spent)
	}
	if got := rec.Counter(obs.MetricYannakakisStates).Value(); got != snap.States.Spent {
		t.Errorf("plan.yannakakis.states = %d, guard states = %d", got, snap.States.Spent)
	}
	if got := rec.Counter(obs.MetricYannakakisSemijoins).Value(); got != int64(red.Semijoins) {
		t.Errorf("plan.yannakakis.semijoins = %d, want %d", got, red.Semijoins)
	}
}

// TestFullReduceGuardedTripsMidReduction is the regression test for the
// ungoverned-reducer bug: a -max-tuples style budget must trip in the
// middle of the semijoin program with the typed *BudgetError, and even
// then the guard's tuple ledger must equal the sizes of the semijoins
// actually performed (mirrored exactly by the obs counter).
func TestFullReduceGuardedTripsMidReduction(t *testing.T) {
	db := chainDB()
	// Ungoverned run first to learn the full program's sizes; the budget
	// is set strictly inside the total so the trip lands mid-program.
	full, err := FullReduce(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range full.Sizes {
		total += s
	}
	if total < 2 {
		t.Fatalf("fixture too small to trip mid-reduction: Σ sizes = %d", total)
	}
	g := guard.New(context.Background(), guard.Limits{MaxTuples: int64(total - 1)})
	rec := obs.NewRecorder()
	_, err = FullReduce(db, g, rec)
	if err == nil {
		t.Fatal("budget inside the program total did not trip")
	}
	var be *guard.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("trip is not a typed *BudgetError: %v", err)
	}
	if be.Resource != "tuples" {
		t.Errorf("tripped resource = %q, want tuples", be.Resource)
	}
	if !guard.Tripped(err) {
		t.Errorf("budget error not classified as governance: %v", err)
	}
	snap := g.Snapshot()
	// Charges stay on trip: the ledger counts every semijoin performed,
	// including the one that tripped, and the mirror counter agrees.
	if got := rec.Counter(obs.MetricYannakakisTuples).Value(); got != snap.Tuples.Spent {
		t.Errorf("plan.yannakakis.tuples = %d, guard tuples = %d", got, snap.Tuples.Spent)
	}
	if snap.Tuples.Spent <= snap.Tuples.Limit {
		t.Errorf("tripped ledger %d not past the limit %d", snap.Tuples.Spent, snap.Tuples.Limit)
	}
	// The input database is untouched by the aborted reduction.
	if db.Relation(0).Size() != 3 {
		t.Error("tripped reduction modified its input")
	}
}

// TestYannakakisGuardedDifferential: on a randomized acyclic corpus
// (chains, stars and random join trees, connected or not) the governed
// fast path returns byte-identical results to the kernel evaluator and
// to the nested-loop oracle, and after the full reduction every
// intermediate join is bounded by the output — the promoted E-yannakakis
// invariant.
func TestYannakakisGuardedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		var schemes []relation.Schema
		switch trial % 3 {
		case 0:
			schemes = gen.Schemes(gen.Chain, 2+rng.Intn(4))
		case 1:
			schemes = gen.Schemes(gen.Star, 2+rng.Intn(4))
		default:
			schemes = gen.RandomAcyclicSchemes(rng, 2+rng.Intn(4))
		}
		db := gen.Uniform(rng, schemes, 5, 3)
		g := guard.New(context.Background(), guard.Limits{})
		rec := obs.NewRecorder()
		ev, err := YannakakisGuarded(db, g, rec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		kernel := database.NewEvaluator(db).Result()
		if !ev.Result.Equal(kernel) {
			t.Fatalf("trial %d: fast path differs from the kernel join", trial)
		}
		oracle := referenceResult(db)
		if !ev.Result.Equal(oracle) {
			t.Fatalf("trial %d: fast path differs from the nested-loop oracle", trial)
		}
		if db.Connected() {
			// Connected + fully reduced: every intermediate ≤ output.
			if max := ev.MaxIntermediate(); max > ev.Result.Size() {
				t.Fatalf("trial %d: max intermediate %d exceeds output %d",
					trial, max, ev.Result.Size())
			}
		}
		// The reported strategy is a complete plan over all relations.
		if ev.Strategy == nil || ev.Strategy.Set() != db.All() {
			t.Fatalf("trial %d: strategy does not cover the database", trial)
		}
	}
}

// TestYannakakisWallOnlyForAcyclicSchemes: a scheme the acyclicity
// check rejects reduces and joins nothing, so it leaves the
// plan.yannakakis.wall timer without a sample; an acyclic one records
// exactly one.
func TestYannakakisWallOnlyForAcyclicSchemes(t *testing.T) {
	rec := obs.NewRecorder()
	wall := rec.Timer(obs.MetricYannakakisWall)
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	if _, err := YannakakisGuarded(cyc, nil, rec); !errors.Is(err, ErrNotAcyclic) {
		t.Fatalf("want ErrNotAcyclic, got %v", err)
	}
	if n, _, _, _ := wall.Stats(); n != 0 {
		t.Errorf("rejected cyclic scheme recorded %d wall samples, want 0", n)
	}
	if _, err := YannakakisGuarded(chainDB(), nil, rec); err != nil {
		t.Fatal(err)
	}
	if n, _, _, _ := wall.Stats(); n != 1 {
		t.Errorf("acyclic scheme recorded %d wall samples, want 1", n)
	}
}

// TestYannakakisGuardedTwoComponents pins the unconnected path: the
// cross-component product is governed too, and the result matches the
// oracle's product.
func TestYannakakisGuardedTwoComponents(t *testing.T) {
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y", "3 z"),
		relation.FromStrings("R2", "BC", "x 7", "y 8"),
		relation.FromStrings("R3", "DE", "d1 e1", "d2 e2"),
	)
	g := guard.New(context.Background(), guard.Limits{})
	ev, err := YannakakisGuarded(db, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Result.Equal(referenceResult(db)) {
		t.Fatal("two-component result differs from the oracle")
	}
	if len(ev.Reduction.Trees) != 2 {
		t.Fatalf("%d trees, want 2", len(ev.Reduction.Trees))
	}
	if ev.Strategy.Set() != db.All() {
		t.Fatal("strategy does not cover both components")
	}
}

// TestReduceToConsistencyGuardedBudget is the fixpoint-loop governance
// regression: the loop is unbounded a priori, so a state budget must
// trip it with the typed error instead of iterating ungoverned.
func TestReduceToConsistencyGuardedBudget(t *testing.T) {
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7", "z 8"),
		relation.FromStrings("R3", "CA", "7 1", "9 5"),
	)
	g := guard.New(context.Background(), guard.Limits{MaxStates: 1})
	_, err := ReduceToConsistency(cyc, g, nil)
	if err == nil {
		t.Fatal("state budget of 1 did not trip the fixpoint loop")
	}
	var be *guard.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("trip is not a typed *BudgetError: %v", err)
	}
	if be.Resource != "states" {
		t.Errorf("tripped resource = %q, want states", be.Resource)
	}
}

// TestReduceToConsistencyGuardedDeadline: a dead context stops the
// fixpoint loop with the typed cancellation, pass by pass.
func TestReduceToConsistencyGuardedDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7", "z 8"),
		relation.FromStrings("R3", "CA", "7 1", "9 5"),
	)
	g := guard.New(ctx, guard.Limits{})
	_, err := ReduceToConsistency(cyc, g, nil)
	if err == nil {
		t.Fatal("dead context did not stop the fixpoint loop")
	}
	if !guard.Tripped(err) {
		t.Fatalf("cancellation not typed as governance: %v", err)
	}
}

// TestReduceToConsistencyGuardedPassCounter: each fixpoint pass charges
// one guard state and increments plan.yannakakis.passes.
func TestReduceToConsistencyGuardedPassCounter(t *testing.T) {
	cyc := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7", "z 8"),
		relation.FromStrings("R3", "CA", "7 1", "9 5"),
	)
	rec := obs.NewRecorder()
	out, err := ReduceToConsistency(cyc, nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !PairwiseConsistent(out) {
		t.Fatal("expected pairwise consistency")
	}
	if rec.Counter(obs.MetricYannakakisPasses).Value() < 2 {
		t.Errorf("passes counter = %d, want ≥ 2 (work pass + fixpoint confirmation)",
			rec.Counter(obs.MetricYannakakisPasses).Value())
	}
}

// TestYannakakisSharesOneTree is the shared-tree regression: the
// reduction and the join phase must walk the same join tree, so the
// strategy JoinTreeStrategy derives from the scheme alone coincides with
// the one the governed evaluation reports.
func TestYannakakisSharesOneTree(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		db := gen.Uniform(rng, gen.RandomAcyclicSchemes(rng, 2+rng.Intn(5)), 5, 3)
		planned, err := JoinTreeStrategy(db)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := YannakakisGuarded(db, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if planned.Render(db) != ev.Strategy.Render(db) {
			t.Fatalf("trial %d: scheme-only strategy %s differs from evaluation's %s",
				trial, planned.Render(db), ev.Strategy.Render(db))
		}
	}
}
