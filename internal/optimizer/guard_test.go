package optimizer

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/guard"
)

func guardedEvaluator(rng *rand.Rand, n int, lim guard.Limits) (*database.Evaluator, *guard.Guard) {
	db := randomDB(rng, n)
	g := guard.New(context.Background(), lim)
	return database.NewEvaluator(db).WithGuard(g), g
}

func TestOptimizeChargesStates(t *testing.T) {
	ev, g := guardedEvaluator(rand.New(rand.NewSource(170)), 6, guard.Limits{})
	res, err := Optimize(ev, SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	_, states, _ := g.Spent()
	if states < int64(res.States) {
		t.Fatalf("guard saw %d states, DP reports %d", states, res.States)
	}
}

func TestOptimizeStateBudgetTrips(t *testing.T) {
	for _, space := range []Space{SpaceAll, SpaceLinear, SpaceNoCP, SpaceLinearNoCP} {
		ev, _ := guardedEvaluator(rand.New(rand.NewSource(171)), 6, guard.Limits{MaxStates: 3})
		_, err := Optimize(ev, space)
		var be *guard.BudgetError
		if !errors.As(err, &be) || be.Resource != "states" {
			t.Fatalf("space %v: want states budget error, got %v", space, err)
		}
		if !guard.Tripped(err) {
			t.Fatalf("space %v: budget error not classified as tripped", space)
		}
	}
}

func TestOptimizeCancellationTrips(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(172)), 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := database.NewEvaluator(db).WithGuard(guard.New(ctx, guard.Limits{}))
	_, err := Optimize(ev, SpaceAll)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
}

func TestOptimaTupleBudgetTrips(t *testing.T) {
	// A budget of one tuple cannot cover the full materialization of a
	// 6-relation chain with non-empty joins; whichever phase spends it,
	// Optima must surface the typed error rather than panic.
	ev, _ := guardedEvaluator(rand.New(rand.NewSource(173)), 6, guard.Limits{MaxTuples: 1})
	_, err := Optima(ev, SpaceAll)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
}

func TestGreedyGuardedStateBudgetTrips(t *testing.T) {
	ev, _ := guardedEvaluator(rand.New(rand.NewSource(174)), 6, guard.Limits{MaxStates: 2})
	_, err := Greedy(ev)
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error, got %v", err)
	}
}

func TestGreedyGuardedSucceedsUngoverned(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(175)), 5)
	res, err := Greedy(database.NewEvaluator(db))
	if err != nil || res.Strategy == nil {
		t.Fatalf("ungoverned greedy failed: res=%v err=%v", res, err)
	}
}

// TestExhaustiveGuardedStateBudgetTrips is the regression test for the
// ungoverned enumeration: Exhaustive must charge one state per strategy.
// The memo is fully warmed first, so the governed re-run pays nothing
// for materializations — every state charge it makes is a per-strategy
// charge. Before the fix that run charged zero states and sailed past
// any -max-states budget; now a budget below the (2n−3)!! strategy
// count must trip.
func TestExhaustiveGuardedStateBudgetTrips(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(179)), 4)
	ev := database.NewEvaluator(db)
	mustExhaustive(t, ev) // warm the memo ungoverned: 15 strategies for n=4
	g := guard.New(context.Background(), guard.Limits{MaxStates: 5})
	_, err := Exhaustive(ev.WithGuard(g))
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error from the enumeration, got %v", err)
	}
}

// TestExhaustiveChargesOnePerStrategy pins the charge rate: on a warm
// memo the guard's state spend equals the strategy count exactly.
func TestExhaustiveChargesOnePerStrategy(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(181)), 4)
	ev := database.NewEvaluator(db)
	mustExhaustive(t, ev)
	g := guard.New(context.Background(), guard.Limits{})
	res, err := Exhaustive(ev.WithGuard(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 15 {
		t.Fatalf("n=4 has (2·4−3)!! = 15 strategies, enumerated %d", res.States)
	}
	if _, states, _ := g.Spent(); states != int64(res.States) {
		t.Fatalf("guard saw %d state charges for %d strategies", states, res.States)
	}
}

// mustExhaustive runs Exhaustive on an evaluator whose guard cannot trip.
func mustExhaustive(t *testing.T, ev *database.Evaluator) Result {
	t.Helper()
	res, err := Exhaustive(ev)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExhaustiveGuardedFaultInjection(t *testing.T) {
	ev, _ := guardedEvaluator(rand.New(rand.NewSource(176)), 5, guard.Limits{FaultStep: 3})
	_, err := Exhaustive(ev)
	if !errors.Is(err, guard.ErrFaultInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
}

func TestEmptySpaceNotTripped(t *testing.T) {
	// ErrEmptySpace is a semantic outcome, not a governance abort: the
	// degradation ladder must not treat it as truncation.
	if guard.Tripped(ErrEmptySpace) {
		t.Fatal("ErrEmptySpace misclassified as a resource trip")
	}
}

func TestAblationNaiveGuarded(t *testing.T) {
	ev, _ := guardedEvaluator(rand.New(rand.NewSource(177)), 6, guard.Limits{MaxStates: 3})
	_, err := optimizeNoCPNaive(ev)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error from naive ablation DP, got %v", err)
	}
}

func TestDegradationLadderAfterTupleTrip(t *testing.T) {
	// The CLI's fallback contract: after the exhaustive pass trips the
	// tuple budget, the memo it warmed lets the DP (and then greedy)
	// finish without new materializations, because memo hits are free.
	db := randomDB(rand.New(rand.NewSource(178)), 6)

	// Measure the full spend, then re-run with just under that budget.
	probe := guard.New(context.Background(), guard.Limits{})
	pev := database.NewEvaluator(db).WithGuard(probe)
	if _, err := Optimize(pev, SpaceAll); err != nil {
		t.Fatal(err)
	}
	want, err := Optimize(database.NewEvaluator(db), SpaceAll)
	if err != nil {
		t.Fatal(err)
	}
	tuples, _, _ := probe.Spent()
	if tuples < 2 {
		t.Skipf("fixture too small: %d tuples", tuples)
	}

	g := guard.New(context.Background(), guard.Limits{MaxTuples: tuples - 1})
	ev := database.NewEvaluator(db).WithGuard(g)
	if _, err := Optimize(ev, SpaceAll); !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want tuple budget trip, got %v", err)
	}
	// Second attempt on the same evaluator: the memo already holds every
	// subset the DP needs except the one that tripped — and since the
	// budget is non-sticky and memo hits charge nothing, retrying after
	// raising the limit must succeed and agree with the ungoverned DP.
	g2 := guard.New(context.Background(), guard.Limits{})
	res, err := Optimize(ev.WithGuard(g2), SpaceAll)
	if err != nil {
		t.Fatalf("fallback DP on warm memo failed: %v", err)
	}
	if res.Cost != want.Cost {
		t.Fatalf("fallback cost %d != ungoverned cost %d", res.Cost, want.Cost)
	}
}
