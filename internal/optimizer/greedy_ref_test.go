package optimizer_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/strategy"
)

// refCand and its tie-break are the greedy candidate order as Greedy and
// GreedyModel each spelled it out before they shared one probe loop.
type refCand struct {
	i, j   int
	size   float64
	linked bool
	ok     bool
}

func (c refCand) better(o refCand) bool {
	if !c.ok || !o.ok {
		return c.ok
	}
	if c.size != o.size {
		return c.size < o.size
	}
	if c.linked != o.linked {
		return c.linked
	}
	if c.i != o.i {
		return c.i < o.i
	}
	return c.j < o.j
}

// greedyRef is the exact Greedy probe loop before it was shared with
// GreedyModel, with the guard trapped as Greedy now does.
func greedyRef(ev *database.Evaluator) (res optimizer.Result, err error) {
	defer guard.Trap(&err)
	db := ev.Database()
	gd := ev.Guard()
	rec := ev.Recorder()
	cStates := rec.Counter(obs.MetricGreedyStates)
	cStatesAll := rec.Counter(obs.MetricDPStates)
	defer rec.Timer(obs.MetricGreedyWall).Start().Stop()
	g := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	states := 0
	for len(pool) > 1 {
		states += len(pool) * (len(pool) - 1) / 2
		var best refCand
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				cStates.Inc()
				cStatesAll.Inc()
				guard.Must(guard.DPLedger(gd, nil).ChargeStates(1))
				a, b := pool[i].Set(), pool[j].Set()
				c := refCand{
					i: i, j: j,
					size:   float64(ev.Size(a.Union(b))),
					linked: g.Linked(a, b),
					ok:     true,
				}
				if c.better(best) {
					best = c
				}
			}
		}
		joined := strategy.Combine(pool[best.i], pool[best.j])
		pool[best.j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		pool[best.i] = joined
	}
	root := pool[0]
	return optimizer.Result{Space: optimizer.SpaceGreedy, Strategy: root, Cost: root.Cost(ev), States: states}, nil
}

// greedyModelRef is the model-costed greedy probe loop before it was
// shared with Greedy.
func greedyModelRef(db *database.Database, size optimizer.SizeModel,
	g *guard.Guard, rec *obs.Recorder) (res optimizer.ModelResult, err error) {
	defer guard.Trap(&err)
	if err := db.Validate(); err != nil {
		return optimizer.ModelResult{}, err
	}
	cStates := rec.Counter(obs.MetricPlanGreedyStates)
	cStatesAll := rec.Counter(obs.MetricPlanStates)
	defer rec.Timer(obs.MetricPlanGreedyWall).Start().Stop()
	graph := db.Graph()
	pool := make([]*strategy.Node, db.Len())
	for i := range pool {
		pool[i] = strategy.Leaf(i)
	}
	states, est := 0, 0.0
	for len(pool) > 1 {
		var best refCand
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				cStates.Inc()
				cStatesAll.Inc()
				guard.Must(guard.PlanLedger(g, nil).ChargeStates(1))
				states++
				a, b := pool[i].Set(), pool[j].Set()
				c := refCand{
					i: i, j: j,
					size:   size(a.Union(b)),
					linked: graph.Linked(a, b),
					ok:     true,
				}
				if c.better(best) {
					best = c
				}
			}
		}
		est += best.size
		joined := strategy.Combine(pool[best.i], pool[best.j])
		pool[best.j] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		pool[best.i] = joined
	}
	return optimizer.ModelResult{Space: optimizer.SpaceGreedy, Strategy: pool[0], Est: est, States: states}, nil
}

// greedyRun is what one greedy run leaves behind: its answer, its typed
// error, the guard's ledger and every counter it recorded.
type greedyRun struct {
	Strategy string
	Cost     float64
	States   int
	Err      string
	Spent    [3]int64
	Counters map[string]int64
}

func newGreedyRun(db *database.Database, root *strategy.Node, cost float64, states int,
	err error, g *guard.Guard, rec *obs.Recorder) greedyRun {
	r := greedyRun{Cost: cost, States: states, Counters: rec.Snapshot().Counters}
	if root != nil {
		r.Strategy = root.Render(db)
	}
	if err != nil {
		r.Err = fmt.Sprintf("%T: %v", err, err)
	}
	r.Spent[0], r.Spent[1], r.Spent[2] = g.Spent()
	return r
}

// greedyVariant runs the shared loop (ref=false) or its reference
// (ref=true) under fresh limits, on a fresh guard and recorder.
type greedyVariant func(lim guard.Limits, ref bool) greedyRun

func exactVariant(db *database.Database) greedyVariant {
	return func(lim guard.Limits, ref bool) greedyRun {
		g := guard.New(context.Background(), lim)
		rec := obs.NewRecorder()
		ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
		greedy := optimizer.Greedy
		if ref {
			greedy = greedyRef
		}
		res, err := greedy(ev)
		return newGreedyRun(db, res.Strategy, float64(res.Cost), res.States, err, g, rec)
	}
}

func modelVariant(db *database.Database, size optimizer.SizeModel) greedyVariant {
	return func(lim guard.Limits, ref bool) greedyRun {
		g := guard.New(context.Background(), lim)
		rec := obs.NewRecorder()
		greedy := optimizer.GreedyModel
		if ref {
			greedy = greedyModelRef
		}
		res, err := greedy(db, size, g, rec)
		return newGreedyRun(db, res.Strategy, res.Est, res.States, err, g, rec)
	}
}

// greedyRefCases builds the databases the shared loop is checked on:
// chain, star, cycle, clique and random connected schemes with n from 2
// to 8, each under uniform and Zipf data, plus one chain with an empty
// relation.
func greedyRefCases() map[string]*database.Database {
	rng := rand.New(rand.NewSource(2301))
	cases := map[string]*database.Database{}
	for n := 2; n <= 8; n++ {
		shapes := map[string][]relation.Schema{
			"chain":  gen.Schemes(gen.Chain, n),
			"star":   gen.Schemes(gen.Star, n),
			"clique": gen.Schemes(gen.Clique, n),
			"random": gen.RandomConnectedSchemes(rng, n, 0.3),
		}
		if n >= 3 {
			shapes["cycle"] = gen.Schemes(gen.Cycle, n)
		}
		for _, shape := range []string{"chain", "star", "cycle", "clique", "random"} {
			schemes, ok := shapes[shape]
			if !ok {
				continue
			}
			cases[fmt.Sprintf("%s%d/uniform", shape, n)] = gen.Uniform(rng, schemes, 5, 3)
			cases[fmt.Sprintf("%s%d/zipf", shape, n)] = gen.Zipf(rng, schemes, 5, 4, 1.5)
		}
	}
	rels := append([]*relation.Relation(nil), gen.Uniform(rng, gen.Schemes(gen.Chain, 5), 5, 3).Relations()...)
	rels[2] = relation.New(rels[2].Name(), rels[2].Schema())
	cases["chain5/empty-relation"] = database.New(rels...)
	return cases
}

// checkGreedyAgainstRef requires the shared loop to reproduce the
// reference run for run: ungoverned, under every state budget from 1 to
// the full spend, and with a fault injected at every join step.
func checkGreedyAgainstRef(t *testing.T, run greedyVariant) {
	t.Helper()
	same := func(what string, lim guard.Limits) greedyRun {
		t.Helper()
		want := run(lim, true)
		got := run(lim, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shared loop diverged from the reference\n got %+v\nwant %+v", what, got, want)
		}
		return want
	}
	full := same("ungoverned", guard.Limits{})
	if full.Err != "" {
		t.Fatalf("ungoverned run failed: %s", full.Err)
	}
	for b := int64(1); b <= full.Spent[1]; b++ {
		r := same(fmt.Sprintf("MaxStates=%d", b), guard.Limits{MaxStates: b})
		if (r.Err != "") != (b < full.Spent[1]) {
			t.Fatalf("MaxStates=%d of a %d-state run: err %q", b, full.Spent[1], r.Err)
		}
	}
	for f := int64(1); f <= full.Spent[2]; f++ {
		if r := same(fmt.Sprintf("FaultStep=%d", f), guard.Limits{FaultStep: f}); r.Err == "" {
			t.Fatalf("FaultStep=%d of a %d-step run did not fault", f, full.Spent[2])
		}
	}
}

// TestGreedySharedLoopMatchesReference checks Greedy and GreedyModel,
// which share one probe loop, against the two loops they replaced: the
// same strategy, cost or estimate, probe count, typed error, guard
// ledger and counters on every case, budget and fault.
func TestGreedySharedLoopMatchesReference(t *testing.T) {
	for name, db := range greedyRefCases() {
		t.Run(name+"/exact", func(t *testing.T) {
			checkGreedyAgainstRef(t, exactVariant(db))
		})
		t.Run(name+"/uniform-catalog", func(t *testing.T) {
			checkGreedyAgainstRef(t, modelVariant(db, estimate.NewCatalog(db).Size))
		})
		t.Run(name+"/histogram-catalog", func(t *testing.T) {
			checkGreedyAgainstRef(t, modelVariant(db, estimate.NewHistogramCatalog(db).Size))
		})
	}
}
