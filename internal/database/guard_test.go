package database

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/relation"
)

// evalTrapped runs fn and converts a guard abort into its error, the
// way the library edges do.
func evalTrapped(fn func()) (err error) {
	defer guard.Trap(&err)
	fn()
	return nil
}

func TestEvaluatorChargesGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	db := randomChain(rng, 5, 6, 3)
	g := guard.New(context.Background(), guard.Limits{})
	ev := NewEvaluator(db).WithGuard(g)
	if ev.Guard() != g {
		t.Fatal("guard not attached")
	}
	ev.Result()
	tuples, states, steps := g.Spent()
	if steps == 0 || states == 0 {
		t.Fatalf("materializations uncharged: tuples=%d states=%d steps=%d", tuples, states, steps)
	}
	// Memo hits charge nothing further.
	ev.Result()
	if _, _, steps2 := g.Spent(); steps2 != steps {
		t.Fatalf("memo hit charged a step: %d → %d", steps, steps2)
	}
}

func TestEvaluatorTupleBudgetAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	db := randomChain(rng, 6, 8, 3)
	// Measure the full ungoverned spend, then re-run with a budget
	// strictly below it so the trip is guaranteed whatever the seed's
	// intermediate sizes turn out to be.
	probe := guard.New(context.Background(), guard.Limits{})
	NewEvaluator(db).WithGuard(probe).Result()
	total, _, _ := probe.Spent()
	if total < 2 {
		t.Fatalf("fixture too small to exercise the budget: %d tuples", total)
	}
	g := guard.New(context.Background(), guard.Limits{MaxTuples: total - 1})
	ev := NewEvaluator(db).WithGuard(g)
	err := evalTrapped(func() { ev.Result() })
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want tuples budget abort, got %v", err)
	}
	// The memo keeps what was charged; evaluating those subsets again
	// succeeds without new charges.
	for s, en := range ev.memo {
		if !en.charged {
			continue
		}
		if err := evalTrapped(func() { ev.Eval(s) }); err != nil {
			t.Fatalf("memo hit re-tripped: %v", err)
		}
	}
}

func TestEvaluatorCancellationAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	db := randomChain(rng, 6, 4, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := NewEvaluator(db).WithGuard(guard.New(ctx, guard.Limits{}))
	err := evalTrapped(func() { ev.Result() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation abort, got %v", err)
	}
}

func TestDecodeJSONTooManyRelations(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"relations":[`)
	for i := 0; i <= hypergraph.MaxRelations; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"name":"R%d","attrs":["A%d"],"rows":[]}`, i, i)
	}
	b.WriteString(`]}`)
	// Before the load-path hardening this reached the hypergraph's
	// too-many-relations panic; it must be a plain error.
	db, err := DecodeJSON(strings.NewReader(b.String()))
	if err == nil || db != nil {
		t.Fatalf("want error for %d relations, got db=%v err=%v", hypergraph.MaxRelations+1, db, err)
	}
	if !strings.Contains(err.Error(), "at most") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// checkMemoConsistent asserts that every memo entry agrees with a cold
// evaluator's size and, where it holds one, relation: a tripped
// evaluator's memo is usable, never corrupted.
func checkMemoConsistent(t *testing.T, db *Database, ev *Evaluator) {
	t.Helper()
	cold := NewEvaluator(db)
	for s, en := range ev.memo {
		if en.size != cold.Size(s) || en.rel != nil && !en.rel.Equal(cold.Eval(s)) {
			t.Fatalf("memo entry %v inconsistent after abort", s)
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from its n-th
// call on, so a cancellation lands at a chosen poll of an evaluation.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestTripLeavesConsistentMemo cuts R_D's evaluation short with a tuple
// budget, a cancellation and an injected fault at every point of its
// schedule. Each cut must surface as its typed error, leave a memo that
// agrees with a cold evaluator, and let the same evaluator finish R_D
// once the guard is detached. The second database is two unlinked
// chains, whose Cartesian products are sized from helper builds, so cuts
// also land between a helper build and the charge that reaches it.
func TestTripLeavesConsistentMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	chain := randomChain(rng, 7, 6, 2)
	// Dropping D from R3(D,E) unlinks R0-R2 from R3-R6.
	split := append([]*relation.Relation(nil), randomChain(rng, 7, 6, 2).Relations()...)
	split[3] = relation.Project(split[3], relation.NewSchema("E"))
	for _, db := range []*Database{chain, New(split...)} {
		probe := guard.New(context.Background(), guard.Limits{})
		want := NewEvaluator(db).WithGuard(probe).Result()
		tuples, _, steps := probe.Spent()
		helpers := 0
		cut := func(name string, g *guard.Guard, ok func(error) bool) {
			t.Helper()
			ev := NewEvaluator(db).WithGuard(g)
			if err := evalTrapped(func() { ev.Result() }); !ok(err) {
				t.Fatalf("%s: got %v", name, err)
			}
			checkMemoConsistent(t, db, ev)
			for _, en := range ev.memo {
				if !en.charged {
					helpers++
				}
			}
			if !ev.WithGuard(nil).Result().Equal(want) {
				t.Fatalf("%s: resuming from the tripped memo gave a wrong R_D", name)
			}
		}
		for limit := int64(1); limit < tuples; limit += 1 + tuples/16 {
			cut(fmt.Sprintf("tuple budget %d", limit),
				guard.New(context.Background(), guard.Limits{MaxTuples: limit}),
				func(err error) bool {
					var be *guard.BudgetError
					return errors.As(err, &be) && be.Resource == "tuples"
				})
		}
		for step := int64(1); step <= steps; step++ {
			cut(fmt.Sprintf("fault at step %d", step),
				guard.New(context.Background(), guard.Limits{FaultStep: step}),
				func(err error) bool { return errors.Is(err, guard.ErrFaultInjected) })
		}
		for n := 0; n < int(steps); n++ {
			ctx := &cancelAfter{Context: context.Background(), n: n}
			cut(fmt.Sprintf("cancellation at poll %d", n), guard.New(ctx, guard.Limits{}),
				func(err error) bool { return errors.Is(err, context.Canceled) })
		}
		if !db.Connected() && helpers == 0 {
			t.Fatal("no cut of the unlinked chains landed after a helper build")
		}
	}
}

// assertNoGoroutineLeak fails the test if the goroutine count has not
// returned to its baseline shortly after the exercised code returned.
func assertNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The TestPrewarmGuarded tests prewarm a guarded evaluator, sizing every
// connected subset level by level as sizeConnected does, and cut that
// schedule part-way through a level. An 8-chain has 28 multi-relation
// connected subsets (intervals of length ≥ 2), so cuts at steps or polls
// 1, 5, 13 and 27 land inside a level. Each cut must surface as its
// typed error, leave no goroutine behind, and leave a memo that agrees
// with a cold evaluator.

func TestPrewarmGuardedCancellationMidLevelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	db := randomChain(rng, 8, 6, 3)
	// Cancel before the run, then at polls inside the schedule.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs := []context.Context{ctx}
	for _, n := range []int{1, 5, 13, 27} {
		ctxs = append(ctxs, &cancelAfter{Context: context.Background(), n: n})
	}
	for i, ctx := range ctxs {
		baseline := runtime.NumGoroutine()
		warm := NewEvaluator(db).WithGuard(guard.New(ctx, guard.Limits{}))
		if err := sizeConnected(warm); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation %d: want cancellation error, got %v", i, err)
		}
		assertNoGoroutineLeak(t, baseline)
		checkMemoConsistent(t, db, warm)
	}
}

func TestPrewarmGuardedFaultMidLevelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	db := randomChain(rng, 8, 6, 3)
	for _, faultStep := range []int64{1, 5, 13, 27} {
		baseline := runtime.NumGoroutine()
		g := guard.New(context.Background(), guard.Limits{FaultStep: faultStep})
		warm := NewEvaluator(db).WithGuard(g)
		if err := sizeConnected(warm); !errors.Is(err, guard.ErrFaultInjected) {
			t.Fatalf("fault at step %d: want injected fault, got %v", faultStep, err)
		}
		assertNoGoroutineLeak(t, baseline)
		checkMemoConsistent(t, db, warm)
		// The partial memo must still be usable: finishing the
		// evaluation unguarded from the same memo yields R_D.
		if !warm.WithGuard(nil).Result().Equal(NewEvaluator(db).Result()) {
			t.Fatalf("fault at step %d: resuming from partial memo gave a wrong result", faultStep)
		}
	}
}

func TestPrewarmGuardedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	db := randomChain(rng, 6, 8, 3)
	g := guard.New(context.Background(), guard.Limits{MaxTuples: 10})
	warm := NewEvaluator(db).WithGuard(g)
	err := sizeConnected(warm)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want typed tuples budget error, got %v", err)
	}
	checkMemoConsistent(t, db, warm)
}
