package conditions

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// checkC1Ref is checkC1 as it was before the neighbour masks: every
// candidate is tested with Disjoint and Linked. The differential test
// holds checkC1 to it.
func checkC1Ref(ev *database.Evaluator, strict bool) Report {
	cond := C1
	if strict {
		cond = C1Strict
	}
	g := ev.Database().Graph()
	subs := connectedSubsets(g)
	for _, e := range subs {
		for _, e1 := range subs {
			if !e.Disjoint(e1) || !g.Linked(e, e1) {
				continue
			}
			left := ev.JoinSize(e, e1)
			for _, e2 := range subs {
				if !e.Disjoint(e2) || !e1.Disjoint(e2) || g.Linked(e, e2) {
					continue
				}
				right := ev.JoinSize(e, e2)
				bad := left > right
				if strict {
					bad = left >= right
				}
				if bad {
					return Report{Cond: cond, Holds: false, Witness: &Witness{
						Cond: cond, E: e, E1: e1, E2: e2, Left: left, Right: right,
					}}
				}
			}
		}
	}
	return Report{Cond: cond, Holds: true}
}

// checkC1One checks C1 (strict false) or C1′ (strict true) alone, the
// way Check does.
func checkC1One(ev *database.Evaluator, strict bool) Report {
	c1, c1Strict := checkC1(ev, !strict, strict)
	if strict {
		return c1Strict
	}
	return c1
}

// c1Run is what one C1 check leaves behind: the report, the memo
// counters and the guard ledger.
type c1Run struct {
	report string
	hits   int64
	misses int64
	spent  [3]int64
}

func runC1(db *database.Database, strict bool, check func(*database.Evaluator, bool) Report) c1Run {
	g := guard.New(context.Background(), guard.Limits{})
	rec := obs.NewRecorder()
	r := check(database.NewEvaluator(db).WithGuard(g).WithRecorder(rec), strict)
	run := c1Run{report: fmt.Sprintf("holds=%v", r.Holds)}
	if r.Witness != nil {
		run.report += " " + r.Witness.String()
	}
	c := rec.Snapshot().Counters
	run.hits, run.misses = c[obs.MetricEvalMemoHits], c[obs.MetricEvalMemoMisses]
	run.spent[0], run.spent[1], run.spent[2] = g.Spent()
	return run
}

// TestCheckC1MatchesReference runs C1 and C1′ both ways on chains,
// stars, cycles, cliques and random schemes with n = 2..8, plus two
// unlinked chains. Random schemes often fall apart, so unconnected
// schemes are covered too. Reports (holds and witness), eval.memo.*
// counters and guard ledgers must be identical.
func TestCheckC1MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for n := 2; n <= 8; n++ {
		for _, c := range c1Shapes(rng, n) {
			for trial := 0; trial < 3; trial++ {
				db := gen.Uniform(rng, c.schemes, 1+rng.Intn(4), 2+rng.Intn(2))
				for _, strict := range []bool{false, true} {
					got, want := runC1(db, strict, checkC1One), runC1(db, strict, checkC1Ref)
					if got != want {
						t.Fatalf("%s%d trial %d strict=%v:\n got %+v\nwant %+v", c.name, n, trial, strict, got, want)
					}
				}
			}
		}
	}
}

// shapeCase is one scheme the C1 tests generate data for.
type shapeCase struct {
	name    string
	schemes []relation.Schema
}

// c1Shapes returns the schemes the C1 tests check for n relations:
// chain, star, cycle (n ≥ 3), clique, a random scheme and two unlinked
// chains.
func c1Shapes(rng *rand.Rand, n int) []shapeCase {
	cases := []shapeCase{
		{"random", randomSchemes(rng, n)},
		{"chain+chain", append(gen.Schemes(gen.Chain, n/2), prefixed("U", gen.Schemes(gen.Chain, n-n/2))...)},
	}
	for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Cycle, gen.Clique} {
		if shape != gen.Cycle || n >= 3 {
			cases = append(cases, shapeCase{shape.String(), gen.Schemes(shape, n)})
		}
	}
	return cases
}

// TestCheckAllWalksC1Once requires CheckAll to check C1 and C1′ in one
// pass. On a warm evaluator every request is a memo hit, so the hits a
// call adds count the subsets it requests: a second CheckAll must add
// exactly the hits of Check(C1), Check(C2), Check(C3) and Check(C4),
// with nothing for a separate C1′ pass, and report what the five
// Checks report.
func TestCheckAllWalksC1Once(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	starBothHold := false
	for n := 2; n <= 8; n++ {
		for _, c := range c1Shapes(rng, n) {
			db := gen.Uniform(rng, c.schemes, 1+rng.Intn(4), 2+rng.Intn(2))
			rec := obs.NewRecorder()
			ev := database.NewEvaluator(db).WithRecorder(rec)
			hits := func() int64 { return rec.Snapshot().Counters[obs.MetricEvalMemoHits] }
			CheckAll(ev)
			before := hits()
			reports := CheckAll(ev)
			fused := hits() - before
			var want int64
			for _, cond := range []Condition{C1, C2, C3, C4} {
				before = hits()
				Check(ev, cond)
				want += hits() - before
			}
			if fused != want {
				t.Fatalf("%s%d: CheckAll requested %d subsets, Check(C1…C4) %d", c.name, n, fused, want)
			}
			for i, cond := range []Condition{C1, C1Strict, C2, C3, C4} {
				if r := Check(ev, cond); !reflect.DeepEqual(reports[i], r) {
					t.Fatalf("%s%d: CheckAll reports %+v for %v, Check %+v", c.name, n, reports[i], cond, r)
				}
			}
			before = hits()
			Check(ev, C1Strict)
			if c.name == "star" && reports[0].Holds && reports[1].Holds && hits() > before {
				starBothHold = true
			}
		}
	}
	if !starBothHold {
		t.Fatal("no star had C1 and C1′ both hold over a nonempty set of triples")
	}
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

// prefixed prefixes every attribute, so the schemes share none with
// schemes generated separately.
func prefixed(prefix string, schemes []relation.Schema) []relation.Schema {
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
