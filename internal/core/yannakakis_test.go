package core

import (
	"strings"
	"testing"

	"multijoin/internal/database"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/paperex"
	"multijoin/internal/relation"
)

// TestAnalyzeYannakakisResult: on an acyclic scheme the analysis carries
// the fifth strategy space — the governed reduction + join-tree join —
// with its intermediates bounded by the output (the Section 5 regime).
func TestAnalyzeYannakakisResult(t *testing.T) {
	db := paperex.Example5()
	an, err := Analyze(db)
	if err != nil {
		t.Fatal(err)
	}
	y := an.Yannakakis
	if y == nil {
		t.Fatal("acyclic scheme produced no yannakakis result")
	}
	if y.Strategy == nil || y.Strategy.Set() != db.All() {
		t.Fatalf("yannakakis strategy does not cover the database: %v", y.Strategy)
	}
	kernel := database.NewEvaluator(db).Result().Size()
	if y.Output != kernel {
		t.Errorf("yannakakis output = %d, kernel R_D = %d", y.Output, kernel)
	}
	if y.MaxIntermediate > y.Output {
		t.Errorf("max intermediate %d exceeds output %d after full reduction",
			y.MaxIntermediate, y.Output)
	}
	if len(y.Intermediates) != db.Len()-1 {
		t.Errorf("%d join intermediates, want %d", len(y.Intermediates), db.Len()-1)
	}
	if y.Semijoins != 2*(db.Len()-1) {
		t.Errorf("semijoin program length = %d, want %d", y.Semijoins, 2*(db.Len()-1))
	}
}

// TestAnalyzeCyclicSchemeHasNoYannakakis: the fast path is gated on the
// scheme-only acyclicity check.
func TestAnalyzeCyclicSchemeHasNoYannakakis(t *testing.T) {
	tri := database.New(
		relation.FromStrings("R1", "AB", "1 x", "2 y"),
		relation.FromStrings("R2", "BC", "x 7", "y 8"),
		relation.FromStrings("R3", "CA", "7 1", "8 2"),
	)
	an, err := Analyze(tri)
	if err != nil {
		t.Fatal(err)
	}
	if an.Yannakakis != nil {
		t.Fatal("cyclic scheme produced a yannakakis result")
	}
}

// TestYannakakisSpanReconcilesWithLedger is the acceptance identity for
// the fast path: the phase:optimize:yannakakis span's guard-delta stamps
// equal the plan.yannakakis.* counters exactly — the span attribution,
// the obs mirror and the guard ledger are three views of one spend.
func TestYannakakisSpanReconcilesWithLedger(t *testing.T) {
	db := paperex.Example5()
	g := guard.New(nil, guard.Limits{})
	rec := obs.NewRecorder()
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	an, err := AnalyzeEvaluator(ev)
	if err != nil {
		t.Fatal(err)
	}
	if an.Yannakakis == nil {
		t.Fatal("no yannakakis result to reconcile")
	}
	var span *obs.SpanRecord
	for i, sp := range rec.Spans() {
		if sp.Name == "phase:optimize:yannakakis" {
			span = &rec.Spans()[i]
			break
		}
	}
	if span == nil {
		t.Fatal("trace has no phase:optimize:yannakakis span")
	}
	if got, want := span.Tuples, rec.Counter(obs.MetricYannakakisTuples).Value(); got != want {
		t.Errorf("span tuples delta = %d, plan.yannakakis.tuples = %d", got, want)
	}
	if got, want := span.States, rec.Counter(obs.MetricYannakakisStates).Value(); got != want {
		t.Errorf("span states delta = %d, plan.yannakakis.states = %d", got, want)
	}
	if got, want := span.Steps, rec.Counter(obs.MetricYannakakisSteps).Value(); got != want {
		t.Errorf("span steps delta = %d, plan.yannakakis.steps = %d", got, want)
	}
	// The counter decomposes into the reduction's semijoin sizes plus the
	// join phase's intermediates — nothing else charges this family.
	semiPlusJoins := int64(an.Yannakakis.SemijoinTuples + an.Yannakakis.Tau)
	if got := rec.Counter(obs.MetricYannakakisTuples).Value(); got != semiPlusJoins {
		t.Errorf("plan.yannakakis.tuples = %d, semijoin+join sizes = %d", got, semiPlusJoins)
	}
}

// TestAnalyzeYannakakisTruncates: a tuple budget that survives every
// earlier phase but dies inside the fast path records a truncation —
// the rest of the analysis is preserved, not thrown away.
func TestAnalyzeYannakakisTruncates(t *testing.T) {
	db := paperex.Example5()
	// Learn the spend profile from an ungoverned observed run.
	g := guard.New(nil, guard.Limits{})
	rec := obs.NewRecorder()
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	if _, err := AnalyzeEvaluator(ev); err != nil {
		t.Fatal(err)
	}
	total := g.Snapshot().Tuples.Spent
	yann := rec.Counter(obs.MetricYannakakisTuples).Value()
	if yann < 2 {
		t.Fatalf("fixture too small: yannakakis phase charges only %d tuples", yann)
	}
	// Budget exactly the pre-yannakakis spend: every earlier phase fits,
	// the fast path trips partway through its semijoin program.
	g2 := guard.New(nil, guard.Limits{MaxTuples: total - yann})
	ev2 := database.NewEvaluator(db).WithGuard(g2)
	an, err := AnalyzeEvaluator(ev2)
	if err != nil {
		t.Fatal(err)
	}
	if an.Yannakakis != nil {
		t.Fatal("tripped fast path still reported a result")
	}
	if len(an.Results) == 0 {
		t.Fatal("earlier subspace optima were lost")
	}
	found := false
	for _, tr := range an.Truncated {
		if strings.Contains(tr.Phase, "yannakakis") {
			found = true
			if !guard.Tripped(tr.Err) {
				t.Errorf("truncation error not typed: %v", tr.Err)
			}
		}
	}
	if !found {
		t.Fatalf("no yannakakis truncation recorded: %+v", an.Truncated)
	}
}
