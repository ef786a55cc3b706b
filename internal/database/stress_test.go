package database

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// TestEvaluatorConcurrentEvalStress hammers one shared evaluator from
// many goroutines, each evaluating every subset in a different order,
// and checks the concurrency contract of the sharded memo:
//
//   - every goroutine sees exactly the sizes and relations the
//     reference evaluator computes;
//   - each distinct subset is charged once — `eval.memo.misses` is at
//     most the memo's final population, however many callers raced,
//     because the in-flight latch collapses duplicate work.
//
// It runs on a chain and on a scheme of two unlinked chains, where the
// racers size Cartesian products from helper builds of their
// components. The CI -race job runs this with the race detector on.
func TestEvaluatorConcurrentEvalStress(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	chain := randomChain(rng, 7, 6, 3)
	// Dropping D from R3(D,E) unlinks R0-R2 from R3-R6.
	split := append([]*relation.Relation(nil), randomChain(rng, 7, 6, 3).Relations()...)
	split[3] = relation.Project(split[3], relation.NewSchema("E"))
	for _, db := range []*Database{chain, New(split...)} {
		concurrentEvalStress(t, db)
	}
}

func concurrentEvalStress(t *testing.T, db *Database) {
	ref := NewReferenceEvaluator(db)
	rec := obs.NewRecorder()
	ev := NewEvaluator(db).WithRecorder(rec)

	// Every non-empty subset of a 7-relation scheme, shuffled per
	// goroutine so the racers collide on different fronts.
	all := db.All()
	var subsets []hypergraph.Set
	for s := hypergraph.Set(1); s <= all; s++ {
		if s.SubsetOf(all) && !s.Empty() {
			subsets = append(subsets, s)
		}
	}
	want := make(map[hypergraph.Set]*relation.Relation, len(subsets))
	for _, s := range subsets {
		want[s] = ref.Eval(s)
	}

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if err := guard.Recovered(recover()); err != nil {
					errs[w] = err
				}
			}()
			order := make([]hypergraph.Set, len(subsets))
			copy(order, subsets)
			r := rand.New(rand.NewSource(int64(w)))
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, s := range order {
				// Half the racers only size, so products are sized by
				// some goroutines while others build their tuples.
				if w%2 == 0 && ev.Size(s) != want[s].Size() ||
					w%2 == 1 && !ev.Eval(s).Equal(want[s]) {
					t.Errorf("racer %d: subset %v differs from the reference evaluator", w, s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("racer %d panicked: %v", w, err)
		}
	}

	misses := rec.Snapshot().Counters["eval.memo.misses"]
	if got := int64(ev.MemoLen()); misses > got {
		t.Fatalf("eval.memo.misses = %d > %d distinct subsets: a subset was charged twice", misses, got)
	}
	if ev.MemoLen() != len(subsets) {
		t.Fatalf("memo holds %d subsets, want %d", ev.MemoLen(), len(subsets))
	}
}

// TestEvaluatorConcurrentGuardTrip races goroutines into a tuple budget
// that must trip mid-flight: every racer gets the same typed error or a
// clean result, no deadlock (a latch left closed would hang a waiter
// forever), and the memo stays consistent.
func TestEvaluatorConcurrentGuardTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	db := randomChain(rng, 6, 8, 3)
	probe := guard.New(context.Background(), guard.Limits{})
	NewEvaluator(db).WithGuard(probe).Result()
	total, _, _ := probe.Spent()
	if total < 2 {
		t.Skipf("fixture too small: %d tuples", total)
	}

	g := guard.New(context.Background(), guard.Limits{MaxTuples: total / 2})
	ev := NewEvaluator(db).WithGuard(g)
	const racers = 6
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				errs[w] = guard.Recovered(recover())
			}()
			ev.Result()
		}(w)
	}
	wg.Wait()
	tripped := 0
	for w, err := range errs {
		if err == nil {
			continue
		}
		if !guard.Tripped(err) {
			t.Fatalf("racer %d: non-governance error %v", w, err)
		}
		tripped++
	}
	if tripped == 0 {
		t.Fatal("budget of half the full spend tripped no racer")
	}
	checkMemoConsistent(t, db, ev)
}
