package database

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

func TestPrewarmConnectedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 30; trial++ {
		db := randomChain(rng, 3+rng.Intn(4), 5, 3)
		warm := PrewarmConnected(db, 4)
		cold := NewEvaluator(db)
		g := db.Graph()
		g.ConnectedSubsetsOf(db.All(), func(s hypergraph.Set) bool {
			if !warm.Eval(s).Equal(cold.Eval(s)) {
				t.Fatalf("trial %d: subset %v differs between warm and cold", trial, s)
			}
			return true
		})
	}
}

func TestPrewarmConnectedPopulatesMemo(t *testing.T) {
	db := randomChain(rand.New(rand.NewSource(132)), 5, 4, 3)
	warm := PrewarmConnected(db, 2)
	// A 5-chain has 15 connected subsets (intervals).
	if got := warm.MemoLen(); got != 15 {
		t.Fatalf("memo has %d entries, want 15", got)
	}
	// Evaluating a connected subset afterwards must not add entries.
	warm.Eval(hypergraph.Set(0b00111))
	if warm.MemoLen() != 15 {
		t.Fatal("warm evaluation should be a pure memo hit")
	}
}

func TestPrewarmWorkerCounts(t *testing.T) {
	db := randomChain(rand.New(rand.NewSource(133)), 6, 4, 3)
	want := NewEvaluator(db).Result()
	for _, workers := range []int{0, 1, 2, 8} {
		warm := PrewarmConnected(db, workers)
		if !warm.Result().Equal(want) {
			t.Fatalf("workers=%d: result differs", workers)
		}
	}
}

func TestPrewarmSingleRelation(t *testing.T) {
	db := New(relation.FromStrings("R", "AB", "1 x"))
	warm := PrewarmConnected(db, 3)
	if warm.Size(hypergraph.Singleton(0)) != 1 {
		t.Fatal("singleton prewarm wrong")
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

// checkMemoConsistent asserts that every memo entry agrees with the
// sequential evaluator's size and, where it holds one, relation — the
// guarantee that an aborted prewarm leaves a usable, never a corrupted,
// memo.
func checkMemoConsistent(t *testing.T, db *Database, warm *Evaluator) {
	t.Helper()
	cold := NewEvaluator(db)
	warm.memoRange(func(s hypergraph.Set, en memoEntry) bool {
		if en.size != cold.Size(s) || en.rel != nil && !en.rel.Equal(cold.Eval(s)) {
			t.Fatalf("memo entry %v inconsistent after abort", s)
		}
		return true
	})
}

func TestPrewarmGuardedCancellationMidLevelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	db := randomChain(rng, 8, 6, 3)
	baseline := runtime.NumGoroutine()

	// Cancel before the run: the first charge observes it, the prewarm
	// stops at that level, and all workers join before returning.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warm, err := PrewarmConnectedGuarded(db, 4, guard.New(ctx, guard.Limits{}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	assertNoGoroutineLeak(t, baseline)
	checkMemoConsistent(t, db, warm)
}

func TestPrewarmGuardedFaultMidLevelNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(135))
	db := randomChain(rng, 8, 6, 3)
	// An 8-chain has 28 multi-relation connected subsets (intervals of
	// length ≥ 2); inject the fault in the middle of that schedule so a
	// level is genuinely cut half-way.
	for _, faultStep := range []int64{1, 5, 13, 27} {
		baseline := runtime.NumGoroutine()
		g := guard.New(context.Background(), guard.Limits{FaultStep: faultStep})
		warm, err := PrewarmConnectedGuarded(db, 4, g)
		if !errors.Is(err, guard.ErrFaultInjected) {
			t.Fatalf("fault at step %d: want injected fault, got %v", faultStep, err)
		}
		assertNoGoroutineLeak(t, baseline)
		checkMemoConsistent(t, db, warm)
		// The partial memo must still be usable: finishing the
		// evaluation sequentially (fresh guard-free evaluator semantics
		// via the same memo) yields the correct final result.
		warm.WithGuard(nil)
		if !warm.Result().Equal(NewEvaluator(db).Result()) {
			t.Fatalf("fault at step %d: resuming from partial memo gave a wrong result", faultStep)
		}
	}
}

func TestPrewarmGuardedBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(136))
	db := randomChain(rng, 6, 8, 3)
	g := guard.New(context.Background(), guard.Limits{MaxTuples: 10})
	_, err := PrewarmConnectedGuarded(db, 2, g)
	if !errors.Is(err, guard.ErrBudgetExceeded) {
		t.Fatalf("want budget error, got %v", err)
	}
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Fatalf("want typed tuples budget error, got %v", err)
	}
}

func TestPrewarmGuardedNilGuardMatchesUnguarded(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	db := randomChain(rng, 5, 4, 3)
	warm, err := PrewarmConnectedGuarded(db, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Result().Equal(NewEvaluator(db).Result()) {
		t.Fatal("nil-guard prewarm differs from sequential")
	}
}

func TestPrewarmUnconnectedScheme(t *testing.T) {
	// Only connected subsets are prewarmed; unconnected ones are still
	// computable on demand.
	db := New(
		relation.FromStrings("R", "AB", "1 x", "2 y"),
		relation.FromStrings("S", "CD", "7 p"),
	)
	warm := PrewarmConnected(db, 2)
	if got := warm.Size(db.All()); got != 2 {
		t.Fatalf("on-demand product = %d, want 2", got)
	}
}

// TestPrewarmObservedCounters checks the prewarm instrumentation: the
// recorder's ledger counters must mirror the evaluator's exactly (one
// job per joined subset, the subset-DP τ spend equal to a cold run),
// and the per-level events must bracket every level the prewarm ran.
func TestPrewarmObservedCounters(t *testing.T) {
	db := randomChain(rand.New(rand.NewSource(134)), 5, 4, 3)
	rec := obs.NewRecorder()
	warm, err := PrewarmConnectedObserved(db, 3, nil, rec)
	if err != nil {
		t.Fatal(err)
	}

	// A 5-chain has 15 connected subsets, 5 of them singletons: 10 joins.
	snap := rec.Snapshot()
	if got := snap.Counters["prewarm.jobs"]; got != 10 {
		t.Errorf("prewarm.jobs = %d, want 10", got)
	}
	if got := snap.Counters["eval.states"]; got != 10 {
		t.Errorf("eval.states = %d, want 10", got)
	}
	if got := snap.Counters["prewarm.levels"]; got != 4 {
		t.Errorf("prewarm.levels = %d, want 4 (cardinalities 2..5)", got)
	}
	if snap.Gauges["prewarm.workers"] != 3 {
		t.Errorf("prewarm.workers = %d, want 3", snap.Gauges["prewarm.workers"])
	}

	// The observed τ spend equals what a cold evaluator pays for the
	// same connected subsets.
	var want int64
	cold := NewEvaluator(db)
	db.Graph().ConnectedSubsetsOf(db.All(), func(s hypergraph.Set) bool {
		if s.Len() > 1 {
			want += int64(cold.Size(s))
		}
		return true
	})
	if got := snap.Counters["eval.tuples"]; got != want {
		t.Errorf("eval.tuples = %d, want %d", got, want)
	}

	// Begin/end events bracket each level and their tuple totals sum to
	// the τ spend.
	var begins, ends int
	var eventTuples int64
	for _, e := range rec.Events() {
		switch e.Kind {
		case "begin":
			begins++
		case "end":
			ends++
			eventTuples += e.Tuples
		}
	}
	if begins != 4 || ends != 4 {
		t.Errorf("level events: %d begins, %d ends, want 4/4", begins, ends)
	}
	if eventTuples != want {
		t.Errorf("Σ level event tuples = %d, want %d", eventTuples, want)
	}

	// The memo is genuinely warm: re-evaluation is a pure hit.
	before := snap.Counters["eval.memo.misses"]
	warm.Eval(db.All())
	after := rec.Snapshot().Counters["eval.memo.misses"]
	if after != before {
		t.Errorf("warm evaluation caused %d memo misses", after-before)
	}
}
