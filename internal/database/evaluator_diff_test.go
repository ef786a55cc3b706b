package database_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// The differential tests hold the Evaluator, which sizes Cartesian
// products from their components, to the ReferenceEvaluator, which
// materializes them: the same call sequence must see the same sizes, the
// same guard ledger after every operation, the same typed budget errors
// and the same eval.* counters.

// diffCase is one database shape of the differential tests: its
// schemes, and the rows and value domain each relation is filled from.
type diffCase struct {
	name         string
	schemes      []relation.Schema
	rows, domain int
}

// diffCases returns the shapes the differential tests run on: the
// generator's chains, stars, cycles and cliques with n = 2..8, random
// hypergraphs (often unconnected), two shapes side by side with no
// shared attribute, and schemes with no link at all whose Cartesian
// products run past the 20k and 200k tuple budgets.
func diffCases(rng *rand.Rand) []diffCase {
	var out []diffCase
	for n := 2; n <= 8; n++ {
		small := func(name string, schemes []relation.Schema) {
			out = append(out, diffCase{name, schemes, 1 + rng.Intn(4), 2 + rng.Intn(2)})
		}
		for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Cycle, gen.Clique} {
			if shape == gen.Cycle && n < 3 {
				continue
			}
			small(fmt.Sprintf("%v%d", shape, n), gen.Schemes(shape, n))
		}
		small(fmt.Sprintf("random%d", n), randomSchemes(rng, n))
		k := 1 + rng.Intn(n-1)
		small(fmt.Sprintf("chain%d+star%d", k, n-k), append(gen.Schemes(gen.Chain, k),
			renamed("S", gen.Schemes(gen.Star, n-k))...))
	}
	// (rows+1)^n bounds the tuples the reference materializes.
	for _, u := range []struct{ n, rows int }{{2, 300}, {3, 60}, {4, 22}, {5, 12}, {6, 7}} {
		var schemes []relation.Schema
		for i := 0; i < u.n; i++ {
			schemes = append(schemes, renamed(fmt.Sprintf("U%d", i), gen.Schemes(gen.Chain, 1))...)
		}
		out = append(out, diffCase{fmt.Sprintf("unlinked%d", u.n), schemes, u.rows, 1000})
	}
	return out
}

// randomSchemes gives each of n relations a private attribute and one
// or two drawn from a pool of n, so some pairs link and some schemes
// fall apart.
func randomSchemes(rng *rand.Rand, n int) []relation.Schema {
	out := make([]relation.Schema, n)
	for i := range out {
		attrs := []relation.Attr{relation.Attr(fmt.Sprintf("P%d", i)), relation.Attr(fmt.Sprintf("X%d", rng.Intn(n)))}
		if rng.Intn(2) == 0 {
			attrs = append(attrs, relation.Attr(fmt.Sprintf("X%d", rng.Intn(n))))
		}
		out[i] = relation.NewSchema(attrs...)
	}
	return out
}

// renamed prefixes every attribute, so the schemes share none with
// schemes generated separately.
func renamed(prefix string, schemes []relation.Schema) []relation.Schema {
	out := make([]relation.Schema, len(schemes))
	for i, s := range schemes {
		var attrs []relation.Attr
		for _, a := range s.Attrs() {
			attrs = append(attrs, relation.Attr(prefix)+a)
		}
		out[i] = relation.NewSchema(attrs...)
	}
	return out
}

// database fills the case's schemes with uniform rows and, on some
// draws, empties one relation.
func (c diffCase) database(rng *rand.Rand) *database.Database {
	db := gen.Uniform(rng, c.schemes, c.rows, c.domain)
	rels := append([]*relation.Relation(nil), db.Relations()...)
	if rng.Intn(3) == 0 {
		k := rng.Intn(len(rels))
		rels[k] = relation.NewIn(rels[k].Dict(), rels[k].Name(), rels[k].Schema())
	}
	return database.New(rels...)
}

// sizer is what the differential sequence asks of either evaluator.
type sizer interface {
	Size(hypergraph.Set) int
	Result() *relation.Relation
}

// diffStep is the observable outcome of one operation of the sequence.
type diffStep struct {
	op       string
	cost     int
	strategy string
	err      string
	spent    [3]int64
}

// describe renders an operation's error, spelling out a budget error's
// resource, spend, limit and phase.
func describe(err error) string {
	var be *guard.BudgetError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &be):
		return fmt.Sprintf("budget %s %d/%d in %q", be.Resource, be.Spent, be.Limit, be.Phase)
	}
	return err.Error()
}

// diffRun is one run of the sequence: its steps, its final result and
// its eval.* counters.
type diffRun struct {
	steps    []diffStep
	result   *relation.Relation
	counters map[string]int64
}

// runSequence drives the optimizers through ops — the production entry
// points for the Evaluator, their size-model twins for the reference —
// then the final result and every subset's size, recording the ledger
// after each operation.
func runSequence(db *database.Database, ev sizer, g *guard.Guard, rec *obs.Recorder,
	ops func(space optimizer.Space) (optimizer.Result, error),
	greedy, exhaustive func() (optimizer.Result, error)) diffRun {
	var run diffRun
	record := func(op string, res optimizer.Result, err error) {
		st := diffStep{op: op, err: describe(err)}
		if err == nil {
			st.cost = res.Cost
			if res.Strategy != nil {
				st.strategy = res.Strategy.String()
			}
		}
		st.spent[0], st.spent[1], st.spent[2] = g.Spent()
		run.steps = append(run.steps, st)
	}
	for _, space := range optimizer.DPSpaces() {
		g.SetPhase("optimize:" + space.String())
		res, err := ops(space)
		record(space.String(), res, err)
	}
	g.SetPhase("greedy")
	res, err := greedy()
	record("greedy", res, err)
	if db.Len() <= 6 {
		g.SetPhase("exhaustive")
		res, err := exhaustive()
		record("exhaustive", res, err)
	}
	g.SetPhase("result")
	err = trapped(func() { run.result = ev.Result() })
	record("result", optimizer.Result{}, err)
	g.SetPhase("sizes")
	db.All().Subsets(func(s hypergraph.Set) bool {
		var n int
		err := trapped(func() { n = ev.Size(s) })
		record("size "+s.String(), optimizer.Result{Cost: n}, err)
		return true
	})
	snap := rec.Snapshot()
	run.counters = map[string]int64{}
	for _, name := range []string{obs.MetricEvalTuples, obs.MetricEvalStates, obs.MetricEvalSteps,
		obs.MetricEvalMemoMisses, obs.MetricEvalMemoHits} {
		run.counters[name] = snap.Counters[name]
	}
	return run
}

func trapped(fn func()) (err error) {
	defer guard.Trap(&err)
	fn()
	return nil
}

// runEvaluator runs the sequence on the production Evaluator through
// the optimizer's exact entry points.
func runEvaluator(db *database.Database, lim guard.Limits) diffRun {
	g := guard.New(context.Background(), lim)
	rec := obs.NewRecorder()
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	return runSequence(db, ev, g, rec,
		func(space optimizer.Space) (optimizer.Result, error) { return optimizer.Optimize(ev, space) },
		func() (optimizer.Result, error) { return optimizer.GreedyGuarded(ev) },
		func() (optimizer.Result, error) { return optimizer.ExhaustiveGuarded(ev) })
}

// runReference runs the same sequence on the ReferenceEvaluator. The
// optimizer takes only the production Evaluator, so the reference is
// driven through the size-model entry points, which run the same
// dynamic program and greedy loop and charge the same states, and
// through Exhaustive's enumeration spelled out.
func runReference(db *database.Database, lim guard.Limits) diffRun {
	g := guard.New(context.Background(), lim)
	rec := obs.NewRecorder()
	ref := database.NewReferenceEvaluator(db).WithGuard(g).WithRecorder(rec)
	size := func(s hypergraph.Set) float64 { return float64(ref.Size(s)) }
	cost := func(n *strategy.Node) int {
		total := 0
		for _, st := range n.Steps() {
			total += ref.Size(st.Set())
		}
		return total
	}
	return runSequence(db, ref, g, rec,
		func(space optimizer.Space) (optimizer.Result, error) {
			res, err := optimizer.OptimizeModelObserved(db, size, space, g, nil)
			return optimizer.Result{Strategy: res.Strategy, Cost: int(res.Est)}, err
		},
		func() (res optimizer.Result, err error) {
			defer guard.Trap(&err)
			m, err := optimizer.GreedyModelObserved(db, size, g, nil)
			if err != nil {
				return res, err
			}
			return optimizer.Result{Strategy: m.Strategy, Cost: cost(m.Strategy)}, nil
		},
		func() (res optimizer.Result, err error) {
			defer guard.Trap(&err)
			res.Cost = math.MaxInt
			strategy.EnumerateAll(db.All(), func(n *strategy.Node) bool {
				guard.Must(g.ChargeStates(1))
				if c := cost(n); c < res.Cost {
					res.Cost, res.Strategy = c, n
				}
				return true
			})
			return res, nil
		})
}

func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	for _, c := range diffCases(rng) {
		db := c.database(rng)
		total := runReference(db, guard.Limits{}).steps
		budgets := []int64{0, 20_000, 200_000}
		if last := total[len(total)-1].spent[0]; last > 1 {
			budgets = append(budgets, last-1)
		}
		for _, budget := range budgets {
			t.Run(fmt.Sprintf("%s/tuples=%d", c.name, budget), func(t *testing.T) {
				lim := guard.Limits{MaxTuples: budget}
				want, got := runReference(db, lim), runEvaluator(db, lim)
				if len(got.steps) != len(want.steps) {
					t.Fatalf("%d operations, reference %d", len(got.steps), len(want.steps))
				}
				for i := range want.steps {
					if got.steps[i] != want.steps[i] {
						t.Fatalf("operation %s:\n got %+v\nwant %+v", want.steps[i].op, got.steps[i], want.steps[i])
					}
				}
				for name, n := range want.counters {
					if got.counters[name] != n {
						t.Errorf("%s = %d, reference %d", name, got.counters[name], n)
					}
				}
				if (got.result == nil) != (want.result == nil) ||
					got.result != nil && !got.result.Equal(want.result) {
					t.Errorf("result differs from the reference")
				}
			})
		}
	}
}

// TestEvalMatchesReferenceRelations checks the relations themselves,
// Cartesian products built on demand included, subset by subset.
func TestEvalMatchesReferenceRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	for _, c := range diffCases(rng) {
		db := c.database(rng)
		ev, ref := database.NewEvaluator(db), database.NewReferenceEvaluator(db)
		g := db.Graph()
		// Size first, so products are sized before their tuples are asked for.
		db.All().Subsets(func(s hypergraph.Set) bool {
			ev.Size(s)
			return true
		})
		db.All().Subsets(func(s hypergraph.Set) bool {
			if !ev.Eval(s).Equal(ref.Eval(s)) {
				t.Errorf("%s: R_%v differs from the reference (connected %v)", c.name, s, g.Connected(s))
			}
			return true
		})
	}
}

// TestSuffixChainTripPoints trips a fresh evaluator's Size(D), whose
// miss charges the whole suffix chain D, D∖{0}, …, {n−2, n−1}, at every
// set of the chain: the budget error and the ledger must be the
// reference's, so the chain is charged smallest first, as it was built.
func TestSuffixChainTripPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for _, c := range diffCases(rng) {
		db := c.database(rng)
		sizes := database.NewReferenceEvaluator(db)
		var budgets []int64
		spent := int64(0)
		for s := db.All(); s.Len() > 1; s = s.Remove(s.First()) {
			budgets = append(budgets, int64(sizes.Size(s)))
		}
		for i := len(budgets) - 1; i >= 0; i-- {
			spent += budgets[i]
			budgets[i] = spent - 1
		}
		for _, budget := range budgets {
			if budget < 1 {
				continue
			}
			lim := guard.Limits{MaxTuples: budget}
			want, got := guard.New(context.Background(), lim), guard.New(context.Background(), lim)
			all := db.All()
			wantErr := describe(trapped(func() { database.NewReferenceEvaluator(db).WithGuard(want).Size(all) }))
			gotErr := describe(trapped(func() { database.NewEvaluator(db).WithGuard(got).Size(all) }))
			wantT, wantS, _ := want.Spent()
			gotT, gotS, _ := got.Spent()
			if gotErr != wantErr || gotT != wantT || gotS != wantS {
				t.Errorf("%s tuples=%d: got %q, spent %d/%d; reference %q, spent %d/%d",
					c.name, budget, gotErr, gotT, gotS, wantErr, wantT, wantS)
			}
		}
	}
}

// TestProductPastMaxSizeAborts sizes eight unlinked 300-row relations,
// whose product passes 2^63. The first product on D's suffix chain past
// 2^53 aborts with a *SizeError before it is charged, so the ledger holds
// only the smaller products, and no size, ledger or cost wraps; a tuple
// budget still trips first.
func TestProductPastMaxSizeAborts(t *testing.T) {
	var schemes []relation.Schema
	for i := 0; i < 8; i++ {
		schemes = append(schemes, renamed(fmt.Sprintf("U%d", i), gen.Schemes(gen.Chain, 1))...)
	}
	db := gen.Uniform(rand.New(rand.NewSource(164)), schemes, 300, 1000)
	var wantSet hypergraph.Set
	var wantSpent int64
	size := 1
	for s := hypergraph.Singleton(db.Len() - 1); ; {
		i := s.First()
		if size *= db.Relation(i).Size(); size > database.MaxSize {
			wantSet = s
			break
		}
		if s.Len() > 1 {
			wantSpent += int64(size)
		}
		s = s.Add(i - 1)
	}
	ops := map[string]func(ev *database.Evaluator) error{
		"Size": func(ev *database.Evaluator) error {
			return trapped(func() { ev.Size(db.All()) })
		},
		"Optimize": func(ev *database.Evaluator) error {
			res, err := optimizer.Optimize(ev, optimizer.SpaceAll)
			if err == nil {
				t.Errorf("Optimize returned cost %d", res.Cost)
			}
			return err
		},
		"Greedy": func(ev *database.Evaluator) error {
			res, err := optimizer.GreedyGuarded(ev)
			if err == nil {
				t.Errorf("Greedy returned cost %d", res.Cost)
			}
			return err
		},
	}
	for name, op := range ops {
		g := guard.New(context.Background(), guard.Limits{})
		g.SetPhase("plan")
		err := op(database.NewEvaluator(db).WithGuard(g))
		var se *database.SizeError
		if !errors.As(err, &se) || !errors.Is(err, guard.ErrBudgetExceeded) || !guard.Tripped(err) {
			t.Fatalf("%s: got %v, want a *SizeError matching ErrBudgetExceeded", name, err)
		}
		if se.Phase != "plan" {
			t.Errorf("%s: phase %q, want %q", name, se.Phase, "plan")
		}
		tuples, _, _ := g.Spent()
		if tuples < 0 {
			t.Errorf("%s: tuple ledger wrapped to %d", name, tuples)
		}
		if name == "Size" && (se.Set != wantSet || tuples != wantSpent) {
			t.Errorf("Size: aborted at %v with %d tuples spent, want %v with %d", se.Set, tuples, wantSet, wantSpent)
		}
	}
	g := guard.New(context.Background(), guard.Limits{MaxTuples: 20_000})
	err := trapped(func() { database.NewEvaluator(db).WithGuard(g).Size(db.All()) })
	var be *guard.BudgetError
	if !errors.As(err, &be) || be.Resource != "tuples" {
		t.Errorf("under a 20k tuple budget: got %v, want a tuples budget error", err)
	}
}
