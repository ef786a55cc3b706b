package optimizer

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// exactModel wraps the evaluator as a size model: with it, the model
// pipeline must reproduce the exact pipeline bit for bit (every exact
// intermediate size is an int far below 2^53, so float64 holds it
// exactly and every DP comparison agrees).
func exactModel(ev *database.Evaluator) SizeModel {
	return func(s hypergraph.Set) float64 { return float64(ev.Size(s)) }
}

func TestOptimizeModelMatchesExactDPAllSpaces(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	dbs := []*database.Database{
		paperex.Example1(), paperex.Example3(), paperex.Example5(),
	}
	for trial := 0; trial < 10; trial++ {
		dbs = append(dbs, gen.Zipf(rng, gen.Schemes(gen.Cycle, 5), 8, 4, 1.4))
	}
	for di, db := range dbs {
		for _, space := range DPSpaces() {
			ev := database.NewEvaluator(db)
			exact, exactErr := Optimize(ev, space)
			res, err := OptimizeModel(db, exactModel(database.NewEvaluator(db)), space)
			if errors.Is(exactErr, ErrEmptySpace) {
				if !errors.Is(err, ErrEmptySpace) {
					t.Fatalf("db %d %v: exact empty but model err = %v", di, space, err)
				}
				continue
			}
			if exactErr != nil || err != nil {
				t.Fatalf("db %d %v: errs %v / %v", di, space, exactErr, err)
			}
			if int(res.Est) != exact.Cost {
				t.Fatalf("db %d %v: model est %v, exact cost %d", di, space, res.Est, exact.Cost)
			}
			if got := res.Strategy.Cost(database.NewEvaluator(db)); got != exact.Cost {
				t.Fatalf("db %d %v: model strategy true τ %d, want %d", di, space, got, exact.Cost)
			}
			if res.States != exact.States {
				t.Fatalf("db %d %v: model examined %d states, exact %d", di, space, res.States, exact.States)
			}
		}
	}
}

func TestOptimizeModelRespectsSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	for trial := 0; trial < 10; trial++ {
		db := gen.Uniform(rng, gen.Schemes(gen.Star, 5), 6, 3)
		g := db.Graph()
		for _, space := range DPSpaces() {
			res, err := OptimizeModel(db, exactModel(database.NewEvaluator(db)), space)
			if errors.Is(err, ErrEmptySpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			s := res.Strategy
			if err := s.Validate(db.All()); err != nil {
				t.Fatalf("trial %d %v: %v", trial, space, err)
			}
			switch space {
			case SpaceLinear:
				if !s.IsLinear() {
					t.Fatalf("trial %d: linear space returned bushy %s", trial, s)
				}
			case SpaceNoCP:
				if !s.AvoidsCartesian(g) {
					t.Fatalf("trial %d: no-CP space returned %s with CPs", trial, s)
				}
			case SpaceLinearNoCP:
				if !s.IsLinear() || !s.AvoidsCartesian(g) {
					t.Fatalf("trial %d: linear-no-CP space returned %s", trial, s)
				}
			}
		}
	}
}

func TestOptimizeModelRejectsMethodLabels(t *testing.T) {
	db := paperex.Example1()
	for _, space := range []Space{SpaceGreedy, SpaceExhaustive} {
		if _, err := OptimizeModel(db, exactModel(database.NewEvaluator(db)), space); err == nil {
			t.Fatalf("%v must be rejected", space)
		}
	}
}

func TestGreedyModelMatchesGreedyOnExactModel(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	dbs := []*database.Database{paperex.Example1(), paperex.Example5()}
	for trial := 0; trial < 15; trial++ {
		dbs = append(dbs, gen.Zipf(rng, gen.Schemes(gen.Chain, 6), 8, 4, 1.4))
	}
	for di, db := range dbs {
		exact := mustGreedy(t, database.NewEvaluator(db))
		res, err := GreedyModel(db, exactModel(database.NewEvaluator(db)), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy.String() != exact.Strategy.String() {
			t.Fatalf("db %d: model greedy picked %s, exact greedy %s", di, res.Strategy, exact.Strategy)
		}
		if int(res.Est) != exact.Cost {
			t.Fatalf("db %d: model greedy est %v, exact cost %d", di, res.Est, exact.Cost)
		}
	}
}

func TestGreedyModelEstIsModelCost(t *testing.T) {
	// The running est must equal the model cost of the returned tree —
	// each combine counted once.
	rng := rand.New(rand.NewSource(214))
	db := gen.Uniform(rng, gen.Schemes(gen.Cycle, 5), 7, 3)
	size := exactModel(database.NewEvaluator(db))
	res, err := GreedyModel(db, size, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, step := range res.Strategy.Steps() {
		sum += size(step.Set())
	}
	if math.Abs(res.Est-sum) > 1e-9 {
		t.Fatalf("est %v, step sum %v", res.Est, sum)
	}
}

func TestOptimizeModelNeverExecutes(t *testing.T) {
	// The whole point of planning from a model: no join runs, only the
	// model is consulted. A data-free model proves it by construction —
	// any attempt to read tuple data would have nothing to read.
	db := paperex.Example5()
	calls := 0
	size := func(s hypergraph.Set) float64 {
		calls++
		return float64(s.Len())
	}
	for _, space := range DPSpaces() {
		if _, err := OptimizeModel(db, size, space); err != nil && !errors.Is(err, ErrEmptySpace) {
			t.Fatal(err)
		}
	}
	if _, err := GreedyModel(db, size, nil, nil); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("model was never consulted")
	}
}

// TestDPSizesEachSubsetOnce pins the DP to one model call per subset
// and space: every split of a subset shares its result size, and a
// histogram model pays a merge for each call.
func TestDPSizesEachSubsetOnce(t *testing.T) {
	dbs := []*database.Database{paperex.Example1(), paperex.Example5()}
	for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Clique} {
		dbs = append(dbs, gen.Uniform(rand.New(rand.NewSource(212)), gen.Schemes(shape, 6), 4, 3))
	}
	for di, db := range dbs {
		for _, space := range DPSpaces() {
			calls := map[hypergraph.Set]int{}
			size := func(s hypergraph.Set) float64 {
				calls[s]++
				return float64(s.Len())
			}
			if _, err := OptimizeModel(db, size, space); err != nil && !errors.Is(err, ErrEmptySpace) {
				t.Fatal(err)
			}
			for s, n := range calls {
				if n > 1 {
					t.Errorf("db %d %v: subset %v sized %d times, want once", di, space, s, n)
				}
			}
		}
	}
}

func TestOptimizeModelGoverned(t *testing.T) {
	db := paperex.Example5()
	g := guard.New(context.Background(), guard.Limits{MaxStates: 3})
	_, err := OptimizeModelObserved(db, exactModel(database.NewEvaluator(db)), SpaceAll, g, obs.NewRecorder())
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error, got %v", err)
	}
}

func TestGreedyModelGoverned(t *testing.T) {
	db := paperex.Example5()
	g := guard.New(context.Background(), guard.Limits{MaxStates: 2})
	_, err := GreedyModel(db, exactModel(database.NewEvaluator(db)), g, obs.NewRecorder())
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error, got %v", err)
	}
}

func TestModelLedgerReconciles(t *testing.T) {
	// plan.states counts every state guard.PlanLedger charges, like dp.states.
	db := paperex.Example5()
	g := guard.New(context.Background(), guard.Limits{})
	rec := obs.NewRecorder()
	if _, err := OptimizeModelObserved(db, exactModel(database.NewEvaluator(db)), SpaceAll, g, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyModel(db, exactModel(database.NewEvaluator(db)), g, rec); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	_, states, _ := g.Spent()
	if snap.Counters[obs.MetricPlanStates] != states {
		t.Fatalf("plan.states %d, guard ledger %d", snap.Counters[obs.MetricPlanStates], states)
	}
}

func TestGreedyEarlyStopMatchesGreedyWhenNoEmptyIntermediate(t *testing.T) {
	rng := rand.New(rand.NewSource(215))
	for trial := 0; trial < 15; trial++ {
		// Dense uniform data: empty intermediates essentially never occur,
		// so early stop must coincide with plain greedy.
		db := gen.Uniform(rng, gen.Schemes(gen.Chain, 5), 10, 2)
		ev := database.NewEvaluator(db)
		plain := mustGreedy(t, database.NewEvaluator(db))
		early := GreedyEarlyStop(ev)
		if plain.Strategy.String() != early.Strategy.String() {
			t.Fatalf("trial %d: early stop diverged without empty intermediates: %s vs %s",
				trial, early.Strategy, plain.Strategy)
		}
		if early.Cost != plain.Cost {
			t.Fatalf("trial %d: costs %d vs %d", trial, early.Cost, plain.Cost)
		}
	}
}

func TestGreedyEarlyStopTerminatesEarly(t *testing.T) {
	// Two disjoint-valued relations join empty; with several more
	// relations in the pool, early stop must fold them without further
	// probing and still produce a valid complete strategy of τ equal to
	// greedy's (all steps after the empty join are free).
	rels := []*relation.Relation{
		relation.FromStrings("R0", "AB", "1 x", "2 y"),
		relation.FromStrings("R1", "BC", "p 7"), // B values disjoint from R0's
		relation.FromStrings("R2", "CD", "7 m", "8 n"),
		relation.FromStrings("R3", "DE", "m 3", "n 4"),
		relation.FromStrings("R4", "EF", "3 u", "4 v"),
	}
	db := database.New(rels...)
	ev := database.NewEvaluator(db)
	early := GreedyEarlyStop(ev)
	if err := early.Strategy.Validate(db.All()); err != nil {
		t.Fatal(err)
	}
	plain := mustGreedy(t, database.NewEvaluator(db))
	if early.Cost != plain.Cost {
		t.Fatalf("early stop τ %d, greedy τ %d", early.Cost, plain.Cost)
	}
	if early.States >= plain.States {
		t.Fatalf("early stop probed %d pairs, plain greedy %d — no probes saved", early.States, plain.States)
	}
}

func TestGreedyEarlyStopGuarded(t *testing.T) {
	db := paperex.Example5()
	g := guard.New(context.Background(), guard.Limits{MaxStates: 2})
	ev := database.NewEvaluator(db).WithGuard(g)
	err := func() (err error) {
		defer guard.Trap(&err)
		GreedyEarlyStop(ev)
		return nil
	}()
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "states" {
		t.Fatalf("want states budget error, got %v", err)
	}
}
