package database

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
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
	ev.memoRange(func(s hypergraph.Set, en memoEntry) bool {
		if !en.charged {
			return true
		}
		if err := evalTrapped(func() { ev.Eval(s) }); err != nil {
			t.Fatalf("memo hit re-tripped: %v", err)
		}
		return true
	})
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
