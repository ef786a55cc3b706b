package conditions

import (
	"context"
	"fmt"
	"math/rand"
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
		type shapeCase struct {
			name    string
			schemes []relation.Schema
		}
		cases := []shapeCase{
			{"random", randomSchemes(rng, n)},
			{"chain+chain", append(gen.Schemes(gen.Chain, n/2), prefixed("U", gen.Schemes(gen.Chain, n-n/2))...)},
		}
		for _, shape := range []gen.Shape{gen.Chain, gen.Star, gen.Cycle, gen.Clique} {
			if shape != gen.Cycle || n >= 3 {
				cases = append(cases, shapeCase{shape.String(), gen.Schemes(shape, n)})
			}
		}
		for _, c := range cases {
			for trial := 0; trial < 3; trial++ {
				db := gen.Uniform(rng, c.schemes, 1+rng.Intn(4), 2+rng.Intn(2))
				for _, strict := range []bool{false, true} {
					got, want := runC1(db, strict, checkC1), runC1(db, strict, checkC1Ref)
					if got != want {
						t.Fatalf("%s%d trial %d strict=%v:\n got %+v\nwant %+v", c.name, n, trial, strict, got, want)
					}
				}
			}
		}
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
