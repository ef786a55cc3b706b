package serve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/gen"
	"multijoin/internal/paperex"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// uniform builds gen.Uniform(seed) over n relations of the given shape.
func uniform(shape gen.Shape, n int, seed int64, rows, domain int) *database.Database {
	return gen.Uniform(rand.New(rand.NewSource(seed)), gen.Schemes(shape, n), rows, domain)
}

// TestCacheHitEqualsMiss: a plan-cache hit re-enters the ladder at its
// entry's rung, so it reports the miss's rung, plan, cost and result
// size. The yannakakis rows are long chains that standard refuses to
// plan at dp; a hit runs the rung again rather than executing its join
// tree on the unreduced database, which would cost 135, 270 and 94.
func TestCacheHitEqualsMiss(t *testing.T) {
	cases := []struct {
		name, mode, rung string
		db               *database.Database
	}{
		{"example1", "", "dp", paperex.Example1()},
		{"clique5", "", "dp", uniform(gen.Clique, 5, 7, 12, 6)},
		{"chain12", "", "yannakakis", uniform(gen.Chain, 12, 7, 20, 20)},
		{"chain16", "", "yannakakis", uniform(gen.Chain, 16, 7, 20, 20)},
		{"chain30", "", "yannakakis", uniform(gen.Chain, 30, 7, 20, 20)},
		{"example5 estimate", "estimate", "estimate", paperex.Example5()},
		{"example5 histogram", "histogram", "estimate", paperex.Example5()},
	}
	for _, tc := range cases {
		for _, execute := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/execute=%v", tc.name, execute), func(t *testing.T) {
				_, doer, _ := newTestServer(t, Config{})
				body, err := BuildRequestBodyMode(tc.db, "standard", execute, false, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				miss := decode200(t, mustDo(t, doer, body))
				hit := decode200(t, mustDo(t, doer, body))
				if miss.CacheHit || !hit.CacheHit {
					t.Fatalf("cacheHit %v then %v, want false then true", miss.CacheHit, hit.CacheHit)
				}
				if miss.Rung != tc.rung {
					t.Fatalf("miss answered at %q, want %q", miss.Rung, tc.rung)
				}
				if hit.Rung != miss.Rung || hit.Plan.Expr != miss.Plan.Expr || hit.Plan.Cost != miss.Plan.Cost {
					t.Errorf("hit %s %s cost %d, miss %s %s cost %d",
						hit.Rung, hit.Plan.Expr, hit.Plan.Cost, miss.Rung, miss.Plan.Expr, miss.Plan.Cost)
				}
				if (hit.ResultSize == nil) != (miss.ResultSize == nil) ||
					(hit.ResultSize != nil && *hit.ResultSize != *miss.ResultSize) {
					t.Errorf("hit resultSize %v, miss %v", hit.ResultSize, miss.ResultSize)
				}
				if (miss.ResultSize != nil) != execute {
					t.Errorf("execute=%v but resultSize %v", execute, miss.ResultSize)
				}
				checkTraceInvariant(t, miss)
				checkTraceInvariant(t, hit)
			})
		}
		// An entry filled by an executed request stores the cost its
		// planning produced, so an unexecuted hit reports what an
		// unexecuted miss does, not the τ the filling request measured.
		t.Run(tc.name+"/filled by an executed request", func(t *testing.T) {
			_, doer, _ := newTestServer(t, Config{})
			body := func(execute, noCache bool) []byte {
				b, err := BuildRequestBodyMode(tc.db, "standard", execute, noCache, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			decode200(t, mustDo(t, doer, body(true, false)))
			hit := decode200(t, mustDo(t, doer, body(false, false)))
			miss := decode200(t, mustDo(t, doer, body(false, true)))
			if !hit.CacheHit || miss.CacheHit {
				t.Fatalf("cacheHit %v then %v, want true then false", hit.CacheHit, miss.CacheHit)
			}
			if hit.Plan.Expr != miss.Plan.Expr || hit.Plan.Cost != miss.Plan.Cost {
				t.Errorf("hit %s cost %d, unexecuted miss %s cost %d",
					hit.Plan.Expr, hit.Plan.Cost, miss.Plan.Expr, miss.Plan.Cost)
			}
		})
	}
}

// TestTrippedCacheHitFollowsTheClass: the cache is keyed by the
// database alone, so a free request can hit the dp entry a premium
// request filled. When executing that plan trips free's budget, the hit
// counts as a dp trip and the descent starts at free's own start rung,
// greedy, so the yannakakis rung never runs although the star is
// acyclic.
func TestTrippedCacheHitFollowsTheClass(t *testing.T) {
	for _, rows := range []int{80, 160} {
		t.Run(fmt.Sprintf("star5 with %d rows", rows), func(t *testing.T) {
			db := uniform(gen.Star, 5, 3, rows, 8)
			_, doer, rec := newTestServer(t, Config{})
			body := func(tenant string) []byte {
				b, err := BuildRequestBodyMode(db, tenant, true, false, "")
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			fill := decode200(t, mustDo(t, doer, body("premium")))
			if fill.Rung != "dp" || fill.Degraded {
				t.Fatalf("premium answered at %q (degraded %v), want dp", fill.Rung, fill.Degraded)
			}
			out := decode200(t, mustDo(t, doer, body("free")))
			if out.CacheHit {
				t.Error("an answer below the tripped entry reports a cache hit")
			}
			if out.Rung != "greedy" && out.Rung != "estimate" {
				t.Errorf("answered at %q, want greedy or estimate", out.Rung)
			}
			if !out.Degraded || len(out.Trips) == 0 || out.Trips[0].Rung != "dp" {
				t.Fatalf("degraded %v, trips %+v; want the cached dp attempt's trip first", out.Degraded, out.Trips)
			}
			if !strings.Contains(out.Trips[0].Error, `phase "dp"`) {
				t.Errorf("dp trip %q does not name its rung", out.Trips[0].Error)
			}
			if got := rec.Counter("serve.trips").Value(); got != int64(len(out.Trips)) {
				t.Errorf("serve.trips = %d, want %d", got, len(out.Trips))
			}
			if rec.Counter("serve.degraded").Value() != 1 || rec.Counter("serve.degraded."+out.Rung).Value() != 1 {
				t.Errorf("serve.degraded and serve.degraded.%s not counted once", out.Rung)
			}
			checkTraceInvariant(t, out)
		})
	}
}

// TestPlanCostPerRung pins what plan.cost counts. On dp, greedy and any
// executed plan it is τ(S) of the returned plan on the request's
// database; on yannakakis it is τ of that plan on the semijoin-reduced
// database, the join phase alone, which differs from its τ on the
// request's database; an unexecuted estimate plan reports the model's
// estimate.
func TestPlanCostPerRung(t *testing.T) {
	tau := func(db *database.Database, expr string) int64 {
		t.Helper()
		plan, err := core.Plan{Expr: expr}.Strategy(db)
		if err != nil {
			t.Fatal(err)
		}
		return int64(strategy.TraceEvaluation(database.NewEvaluator(db), plan).Total)
	}
	for _, tc := range []struct {
		name, mode, rung string
		execute          bool
		db               *database.Database
		cost, unreduced  int64 // -1: unpinned
	}{
		{"chain5", "", "dp", false, uniform(gen.Chain, 5, 7, 20, 20), 39, -1},
		{"chain12", "", "yannakakis", false, uniform(gen.Chain, 12, 7, 20, 20), 60, 135},
		{"chain16", "", "yannakakis", true, uniform(gen.Chain, 16, 7, 20, 20), 128, 270},
		{"chain30", "", "yannakakis", true, uniform(gen.Chain, 30, 7, 20, 20), 0, 94},
		{"cycle12", "", "greedy", true, uniform(gen.Cycle, 12, 7, 20, 20), -1, -1},
		{"example5 executed estimate", "estimate", "estimate", true, paperex.Example5(), -1, -1},
		{"example5 estimate", "estimate", "estimate", false, paperex.Example5(), -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, doer, _ := newTestServer(t, Config{})
			body, err := BuildRequestBodyMode(tc.db, "standard", tc.execute, true, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			out := decode200(t, mustDo(t, doer, body))
			if out.Rung != tc.rung {
				t.Fatalf("answered at %q, want %q", out.Rung, tc.rung)
			}
			if tc.cost >= 0 && out.Plan.Cost != tc.cost {
				t.Errorf("plan.cost %d, want %d", out.Plan.Cost, tc.cost)
			}
			var want int64
			switch {
			case out.Rung == "yannakakis":
				red, err := semijoin.FullReduce(tc.db, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want = tau(red.Database, out.Plan.Expr)
				if got := tau(tc.db, out.Plan.Expr); got != tc.unreduced {
					t.Errorf("the plan's τ on the request's database is %d, want %d", got, tc.unreduced)
				}
			case out.Plan.Estimated && out.ResultSize == nil:
				plan, err := core.Plan{Expr: out.Plan.Expr}.Strategy(tc.db)
				if err != nil {
					t.Fatal(err)
				}
				want = int64(estimate.NewCatalog(tc.db).Cost(plan))
			default:
				want = tau(tc.db, out.Plan.Expr)
			}
			if out.Plan.Cost != want {
				t.Errorf("rung %s: plan.cost %d, recomputed %d", out.Rung, out.Plan.Cost, want)
			}
		})
	}
}
