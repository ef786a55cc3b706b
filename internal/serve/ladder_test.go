package serve

import (
	"context"
	"errors"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// generous is a budget no rung trips on the paper examples.
var generous = guard.Limits{}

// tripping is a budget every searching/executing rung trips on
// immediately (the estimate rung never charges it).
var tripping = guard.Limits{MaxStates: 1}

// TestLadderPerRung is the rung-by-rung contract: when rung k trips,
// rung k+1 answers, the outcome records the answering rung and every
// trip on the way down, and the serve.degraded metrics move.
func TestLadderPerRung(t *testing.T) {
	cases := []struct {
		name     string
		start    Rung
		tripThru Rung // every rung ≤ tripThru gets the tripping budget; -1 trips none
		wantRung Rung
		wantTrip int
	}{
		{"dp clean", RungDP, Rung(-1), RungDP, 0},
		{"dp trips to yannakakis", RungDP, RungDP, RungYannakakis, 1},
		{"yannakakis clean", RungYannakakis, Rung(-1), RungYannakakis, 0},
		{"yannakakis trips to greedy", RungYannakakis, RungYannakakis, RungGreedy, 1},
		{"dp trips through yannakakis", RungDP, RungYannakakis, RungGreedy, 2},
		{"greedy clean", RungGreedy, Rung(-1), RungGreedy, 0},
		{"greedy trips to estimate", RungGreedy, RungGreedy, RungEstimate, 1},
		{"full descent", RungDP, RungGreedy, RungEstimate, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := paperex.Example5()
			rec := obs.NewRecorder()
			degradedBefore := rec.Counter("serve.degraded").Value()
			out, err := runLadder(ladderRequest{
				ctx:   context.Background(),
				db:    db,
				ev:    database.NewEvaluator(db).WithRecorder(rec),
				rec:   rec,
				start: tc.start,
				limitsFor: func(r Rung) guard.Limits {
					if r <= tc.tripThru {
						return tripping
					}
					return generous
				},
			})
			if err != nil {
				t.Fatalf("ladder failed outright: %v", err)
			}
			if out.rung != tc.wantRung {
				t.Errorf("answered at %v, want %v", out.rung, tc.wantRung)
			}
			if len(out.trips) != tc.wantTrip {
				t.Errorf("%d trips recorded, want %d: %+v", len(out.trips), tc.wantTrip, out.trips)
			}
			for _, tr := range out.trips {
				if !guard.Tripped(tr.err) {
					t.Errorf("rung %v recorded a non-governance error: %v", tr.rung, tr.err)
				}
			}
			// The answer must be a complete, valid strategy whatever the rung.
			if out.strategy == nil || out.strategy.Set() != db.All() {
				t.Fatalf("rung %v answered with an invalid strategy: %v", out.rung, out.strategy)
			}
			if out.estimated != (out.rung == RungEstimate) {
				t.Errorf("estimated = %v at rung %v", out.estimated, out.rung)
			}
			// Degradation metrics move exactly when the answer came from
			// below the start rung.
			gotDegraded := rec.Counter("serve.degraded").Value() - degradedBefore
			if tc.wantTrip > 0 {
				if gotDegraded != 1 {
					t.Errorf("serve.degraded moved by %d, want 1", gotDegraded)
				}
				if rec.Counter("serve.degraded."+tc.wantRung.String()).Value() != 1 {
					t.Errorf("serve.degraded.%s not incremented", tc.wantRung)
				}
				if rec.Counter("serve.trips").Value() != int64(tc.wantTrip) {
					t.Errorf("serve.trips = %d, want %d", rec.Counter("serve.trips").Value(), tc.wantTrip)
				}
			} else if gotDegraded != 0 {
				t.Errorf("undegraded run moved serve.degraded by %d", gotDegraded)
			}
		})
	}
}

// TestLadderEstimateNeverExecutes: the bottom rung answers from
// statistics alone — zero tuples charged, cost flagged estimated.
func TestLadderEstimateNeverExecutes(t *testing.T) {
	db := paperex.Example5()
	rec := obs.NewRecorder()
	out, err := runLadder(ladderRequest{
		ctx:       context.Background(),
		db:        db,
		ev:        database.NewEvaluator(db).WithRecorder(rec),
		rec:       rec,
		start:     RungEstimate,
		limitsFor: func(Rung) guard.Limits { return generous },
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.rung != RungEstimate || !out.estimated {
		t.Fatalf("want an estimate answer, got %+v", out)
	}
	if out.cost <= 0 {
		t.Errorf("estimated cost = %d, want positive", out.cost)
	}
	if got := rec.Counter("eval.tuples").Value(); got != 0 {
		t.Errorf("estimate rung materialized %d tuples", got)
	}
}

// TestLadderDeadDeadlineFailsTyped: when the context is already dead,
// every rung fails and the ladder surfaces one typed error carrying the
// full descent.
func TestLadderDeadDeadlineFailsTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db := paperex.Example5()
	rec := obs.NewRecorder()
	_, err := runLadder(ladderRequest{
		ctx:       ctx,
		db:        db,
		ev:        database.NewEvaluator(db).WithRecorder(rec),
		rec:       rec,
		start:     RungDP,
		limitsFor: func(Rung) guard.Limits { return generous },
	})
	if err == nil {
		t.Fatal("dead context produced an answer")
	}
	if !guard.Tripped(err) {
		t.Fatalf("failure not typed as governance: %v", err)
	}
	var le *ladderError
	if !errors.As(err, &le) || len(le.trips) == 0 {
		t.Fatalf("failure does not carry the descent: %v", err)
	}
}

// TestLadderAnalyzeDegrades: a tripped analysis still yields a plan —
// from the yannakakis rung on this acyclic scheme, or from greedy when
// that rung's budget trips too — and the partial analysis is preserved
// either way.
func TestLadderAnalyzeDegrades(t *testing.T) {
	for _, tc := range []struct {
		name     string
		tripYann bool
		wantRung Rung
	}{
		{"to yannakakis", false, RungYannakakis},
		{"past yannakakis to greedy", true, RungGreedy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := paperex.Example5()
			rec := obs.NewRecorder()
			out, err := runLadder(ladderRequest{
				ctx:     context.Background(),
				db:      db,
				ev:      database.NewEvaluator(db).WithRecorder(rec),
				rec:     rec,
				start:   RungDP,
				analyze: true,
				limitsFor: func(r Rung) guard.Limits {
					if r == RungDP {
						return guard.Limits{MaxStates: 40}
					}
					if r == RungYannakakis && tc.tripYann {
						return tripping
					}
					return generous
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.rung != tc.wantRung {
				t.Fatalf("answered at %v, want %v", out.rung, tc.wantRung)
			}
			if out.analysis == nil || out.analysis.Complete() {
				t.Errorf("partial analysis not preserved: %+v", out.analysis)
			}
		})
	}
}

// TestLadderSkipsYannakakisOnCyclicScheme: the acyclic fast path is not
// a degradation target for cyclic schemes — a DP trip on a triangle
// descends straight to greedy with a single recorded trip.
func TestLadderSkipsYannakakisOnCyclicScheme(t *testing.T) {
	db := database.New(
		relation.FromStrings("R1", "AB", "1 x"),
		relation.FromStrings("R2", "BC", "x 7"),
		relation.FromStrings("R3", "CA", "7 1"),
	)
	rec := obs.NewRecorder()
	out, err := runLadder(ladderRequest{
		ctx:   context.Background(),
		db:    db,
		ev:    database.NewEvaluator(db).WithRecorder(rec),
		rec:   rec,
		start: RungDP,
		limitsFor: func(r Rung) guard.Limits {
			if r == RungDP {
				return tripping
			}
			return generous
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.rung != RungGreedy {
		t.Fatalf("answered at %v, want greedy", out.rung)
	}
	if len(out.trips) != 1 || out.trips[0].rung != RungDP {
		t.Fatalf("trips = %+v, want exactly the dp trip", out.trips)
	}
}
