package cli

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"multijoin/internal/obs"
	"multijoin/internal/semijoin"
)

// decodeObsFiles reads back the metrics and trace files a run wrote.
func decodeObsFiles(t *testing.T, metricsPath, tracePath string) (*obs.Snapshot, *obs.Trace) {
	t.Helper()
	mf, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := obs.DecodeMetrics(mf)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	tr, err := obs.DecodeTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	return snap, tr
}

// TestMetricsReconcileWithGuard is the acceptance check: the engine's
// mirrored counters must equal the guard's atomic snapshot, exported as
// gauges. Each governed layer mirrors into its own counter family — the
// evaluator into eval.*, the DP into dp.states, the acyclic fast path
// into plan.yannakakis.* — and the families sum to the guard's ledgers:
// eval.tuples + plan.yannakakis.tuples == guard.spent.tuples, and
// likewise for states (plus dp.states) and steps.
func TestMetricsReconcileWithGuard(t *testing.T) {
	dir := t.TempDir()
	m, tr := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
	_, _, code := run(t, "-example", "1", "-metrics-out", m, "-trace-out", tr)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	snap, trace := decodeObsFiles(t, m, tr)

	if got, want := snap.Counters["eval.tuples"]+snap.Counters["plan.yannakakis.tuples"], snap.Gauges["guard.spent.tuples"]; got != want {
		t.Errorf("eval.tuples+plan.yannakakis.tuples = %d, guard.spent.tuples = %d", got, want)
	}
	if got, want := snap.Counters["eval.states"]+snap.Counters["dp.states"]+snap.Counters["plan.yannakakis.states"], snap.Gauges["guard.spent.states"]; got != want {
		t.Errorf("eval.states+dp.states+plan.yannakakis.states = %d, guard.spent.states = %d", got, want)
	}
	if got, want := snap.Counters["eval.steps"]+snap.Counters["plan.yannakakis.steps"], snap.Gauges["guard.spent.steps"]; got != want {
		t.Errorf("eval.steps+plan.yannakakis.steps = %d, guard.spent.steps = %d", got, want)
	}
	if snap.Counters["plan.yannakakis.tuples"] == 0 && snap.Counters["plan.yannakakis.semijoins"] == 0 {
		t.Error("acyclic example did not exercise the yannakakis fast path")
	}
	if snap.Counters["eval.tuples"] == 0 {
		t.Error("eval.tuples is zero; the evaluator was not instrumented")
	}

	// Every analysis phase must appear as a begin/end pair, in order.
	var begins, ends []string
	for _, e := range trace.Events {
		switch e.Kind {
		case "begin":
			begins = append(begins, e.Name)
		case "end":
			ends = append(ends, e.Name)
		}
	}
	for _, phase := range []string{"materialize", "conditions", "optimize:all"} {
		if !contains(begins, phase) || !contains(ends, phase) {
			t.Errorf("trace missing begin/end pair for phase %q (begins %v ends %v)", phase, begins, ends)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestCostStepEventsSumToTau checks the other acceptance identity end
// to end: the per-step ResultSize events in the trace sum to the τ(S)
// the command printed.
func TestCostStepEventsSumToTau(t *testing.T) {
	dir := t.TempDir()
	trPath := filepath.Join(dir, "t.json")
	out, _, code := run(t, "-example", "1", "-cost", "(((R1 R2) R3) R4)", "-trace-out", trPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	m := regexp.MustCompile(`τ\(S\) = (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no τ(S) in output:\n%s", out)
	}
	printed, _ := strconv.Atoi(m[1])

	tf, err := os.Open(trPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	trace, err := obs.DecodeTrace(tf)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	steps := 0
	for _, e := range trace.Events {
		if e.Kind == "step" {
			sum += e.Tuples
			steps++
		}
	}
	if steps == 0 {
		t.Fatal("trace has no step events")
	}
	if sum != int64(printed) {
		t.Errorf("Σ step event tuples = %d, printed τ(S) = %d", sum, printed)
	}
}

// TestTrippedRunWritesReportAndMetrics: a budget trip must still write
// the metrics file (failed runs are when the numbers matter) and print
// the guard's spent/limit snapshot to stderr.
func TestTrippedRunWritesReportAndMetrics(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "m.json")
	_, errOut, code := run(t, "-example", "1", "-max-tuples", "5", "-metrics-out", m)
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped)\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "budget report") {
		t.Errorf("stderr missing the budget report:\n%s", errOut)
	}
	if !strings.Contains(errOut, "/5") {
		t.Errorf("budget report does not show the tuple limit:\n%s", errOut)
	}
	mf, err := os.Open(m)
	if err != nil {
		t.Fatalf("metrics not written on a tripped run: %v", err)
	}
	defer mf.Close()
	snap, err := obs.DecodeMetrics(mf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gauges["guard.limit.tuples"] != 5 {
		t.Errorf("guard.limit.tuples = %d, want 5", snap.Gauges["guard.limit.tuples"])
	}
	if snap.Counters["guard.trips"] == 0 {
		t.Error("guard.trips counter not incremented on a tripped run")
	}
	// The acceptance identity must hold on budgeted runs too: the
	// charge that trips is counted by both ledgers.
	if got, want := snap.Counters["eval.tuples"]+snap.Counters["plan.yannakakis.tuples"], snap.Gauges["guard.spent.tuples"]; got != want {
		t.Errorf("tripped run: eval.tuples+plan.yannakakis.tuples = %d, guard.spent.tuples = %d", got, want)
	}
}

// TestStateTrippedRunReconciles covers the state-budget trip: the DP
// mirrors its states counter before charging, so the expansion that
// trips still reconciles against the guard's snapshot.
func TestStateTrippedRunReconciles(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "m.json")
	_, errOut, code := run(t, "-example", "5", "-max-states", "40", "-metrics-out", m)
	if code != 4 {
		t.Fatalf("exit %d, want 4 (budget-tripped)\n%s", code, errOut)
	}
	mf, err := os.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := obs.DecodeMetrics(mf)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.Counters["eval.states"] + snap.Counters["dp.states"] + snap.Counters["plan.yannakakis.states"]
	if want := snap.Gauges["guard.spent.states"]; got != want {
		t.Errorf("tripped run: eval.states+dp.states+plan.yannakakis.states = %d, guard.spent.states = %d", got, want)
	}
	if got, want := snap.Counters["eval.tuples"]+snap.Counters["plan.yannakakis.tuples"], snap.Gauges["guard.spent.tuples"]; got != want {
		t.Errorf("tripped run: eval.tuples+plan.yannakakis.tuples = %d, guard.spent.tuples = %d", got, want)
	}
}

// TestReduceRunsTheSemijoinProgramOnce: -reduce reduces and joins in
// one Yannakakis run, so the semijoin counter reads the program length
// 2·(n−1) of an n-relation chain, and the guard's tuple ledger is the
// semijoin result sizes plus the join result sizes of that one run.
func TestReduceRunsTheSemijoinProgramOnce(t *testing.T) {
	const n = 5
	m := filepath.Join(t.TempDir(), "m.json")
	_, errOut, code := run(t, "-gen", "chain", "-n", strconv.Itoa(n), "-rows", "6", "-domain", "3",
		"-reduce", "-metrics-out", m)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	mf, err := os.Open(m)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	snap, err := obs.DecodeMetrics(mf)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters[obs.MetricYannakakisSemijoins]; got != 2*(n-1) {
		t.Errorf("plan.yannakakis.semijoins = %d, want 2·(n−1) = %d", got, 2*(n-1))
	}

	db, err := loadDatabase(0, "", "chain", n, 6, 3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := semijoin.YannakakisGuarded(db, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, sizes := range [][]int{ev.Reduction.Sizes, ev.JoinSizes} {
		for _, s := range sizes {
			want += int64(s)
		}
	}
	if got := snap.Gauges[obs.MetricGuardSpentTuples]; got != want {
		t.Errorf("guard.spent.tuples = %d, want Σ semijoin sizes + Σ join sizes = %d", got, want)
	}
}

// TestLedgerReconcilesOnEveryPath runs every charging path of the
// command on an acyclic and a cyclic scheme, ungoverned and under state
// and tuple budgets of half the ungoverned spend, and requires each
// metrics file to satisfy the guard.Ledger identity: the four counter
// families sum to the guard's spend, tripped runs included.
func TestLedgerReconcilesOnEveryPath(t *testing.T) {
	inputs := []struct {
		name    string
		args    []string
		acyclic bool
	}{
		{"chain4", []string{"-gen", "chain", "-n", "4", "-rows", "6", "-domain", "3"}, true},
		{"cycle4", []string{"-gen", "cycle", "-n", "4", "-rows", "6", "-domain", "3"}, false},
	}
	paths := []struct {
		name          string
		args          []string
		needsJoinTree bool // a cyclic scheme exits 3 before charging
	}{
		{"format json", []string{"-format", "json"}, false},
		{"optima", []string{"-optima"}, false},
		{"strategies", []string{"-strategies"}, false},
		{"cost", []string{"-cost", "(((R0 R1) R2) R3)"}, false},
		{"dot", []string{"-dot", "((R0 R1) (R2 R3))"}, false},
		{"plan estimate", []string{"-plan", "estimate"}, false},
		{"plan histogram", []string{"-plan", "histogram"}, false},
		{"plan yannakakis", []string{"-plan", "yannakakis"}, true},
		{"reduce", []string{"-reduce"}, true},
	}
	dir := t.TempDir()
	metrics := func(t *testing.T, args []string, wantCodes ...int) *obs.Snapshot {
		t.Helper()
		m := filepath.Join(dir, "m.json")
		_, errOut, code := run(t, append(append([]string(nil), args...), "-metrics-out", m)...)
		if !slices.Contains(wantCodes, code) {
			t.Fatalf("exit %d, want one of %v\n%s", code, wantCodes, errOut)
		}
		mf, err := os.Open(m)
		if err != nil {
			t.Fatal(err)
		}
		defer mf.Close()
		snap, err := obs.DecodeMetrics(mf)
		if err != nil {
			t.Fatal(err)
		}
		c, g := snap.Counters, snap.Gauges
		if got, want := c["eval.tuples"]+c["plan.yannakakis.tuples"], g["guard.spent.tuples"]; got != want {
			t.Errorf("eval.tuples+plan.yannakakis.tuples = %d, guard.spent.tuples = %d", got, want)
		}
		if got, want := c["eval.states"]+c["dp.states"]+c["plan.states"]+c["plan.yannakakis.states"], g["guard.spent.states"]; got != want {
			t.Errorf("eval.states+dp.states+plan.states+plan.yannakakis.states = %d, guard.spent.states = %d", got, want)
		}
		if got, want := c["eval.steps"]+c["plan.yannakakis.steps"], g["guard.spent.steps"]; got != want {
			t.Errorf("eval.steps+plan.yannakakis.steps = %d, guard.spent.steps = %d", got, want)
		}
		return snap
	}
	for _, in := range inputs {
		for _, p := range paths {
			args := append(append([]string(nil), in.args...), p.args...)
			rejected := p.needsJoinTree && !in.acyclic
			t.Run(in.name+"/"+p.name, func(t *testing.T) {
				if rejected {
					snap := metrics(t, args, 3)
					if spent := snap.Gauges["guard.spent.states"]; spent != 0 {
						t.Errorf("a rejected cyclic scheme spent %d states", spent)
					}
					metrics(t, append(args, "-max-states", "1"), 3)
					return
				}
				snap := metrics(t, args, 0)
				for _, budget := range []struct{ flag, spent, limit string }{
					{"-max-states", "guard.spent.states", "guard.limit.states"},
					{"-max-tuples", "guard.spent.tuples", "guard.limit.tuples"},
				} {
					limit := snap.Gauges[budget.spent] / 2
					if limit == 0 {
						continue // nothing to trip
					}
					tripped := metrics(t, append(args, budget.flag, strconv.FormatInt(limit, 10)), 0, 4)
					if spent := tripped.Gauges[budget.spent]; spent <= limit ||
						tripped.Gauges[budget.limit] != limit {
						t.Errorf("%s %d did not trip: spent %d", budget.flag, limit, spent)
					}
				}
			})
		}
	}
}

// TestDebugAddrFlag starts the pprof/expvar server on an ephemeral port
// and reports its address on stderr.
func TestDebugAddrFlag(t *testing.T) {
	_, errOut, code := run(t, "-example", "3", "-debug-addr", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "/debug/pprof/") {
		t.Errorf("stderr does not announce the debug server:\n%s", errOut)
	}
}
