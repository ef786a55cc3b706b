package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeConfig is a half-second run of wl: one setup, one replay, and
// none of the gates only a full-length run can meet.
func smokeConfig(t *testing.T, wl workloadSpec, trace bool) config {
	return config{
		wl:         wl,
		seed:       1,
		dur:        500 * time.Millisecond,
		warmup:     200 * time.Millisecond,
		trace:      trace,
		procs:      runtime.NumCPU(),
		dir:        t.TempDir(),
		setupReps:  1,
		replayReps: 1,
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks each run answers correctly and reports every metric the
// spec names, with its unit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				res, err := benchmark(smokeConfig(t, wl, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d, want a clean run", res.Correct, res.Failed, res.Attempted)
				}
				got, ok := res.reported()
				if !ok {
					t.Fatalf("run is missing a reported metric: has %v", res.Metrics)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(got) != len(specs) {
					t.Errorf("reported %d metrics, want %d", len(got), len(specs))
				}
				for _, s := range specs {
					v := got[s.Name]
					if v.Unit != s.Unit {
						t.Errorf("%s: unit %q, want %q", s.Name, v.Unit, s.Unit)
					}
					if (s.Unit == "ms" || s.Unit == "ns" || s.Unit == "s") && v.Value == 0 {
						t.Errorf("%s reads 0: every time is measured on every workload", s.Name)
					}
				}
			})
		}
	}
}

// TestCorruptedExpectationFailsTheRun feeds the correctness gate a wrong
// expected τ and checks the run reports the mismatch and fails.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	for _, name := range []string{"analyze", "serve-cold"} {
		t.Run(name, func(t *testing.T) {
			wl, _ := findWorkload(name)
			cfg := smokeConfig(t, wl, false)
			tgt, err := setupTarget(cfg)
			if err != nil {
				t.Fatal(err)
			}
			switch tg := tgt.(type) {
			case *analyzeTarget:
				for i := range tg.inputs {
					tg.inputs[i].tau["all"]++
				}
			case *serveTarget:
				for i := range tg.cases {
					if tg.cases[i].tau >= 0 {
						tg.cases[i].tau++
					}
				}
			}
			res, err := measure(cfg, tgt, 0, 0)
			if err == nil || res == nil || res.Correct || res.Failed == 0 {
				t.Fatalf("a corrupted expected τ passed: err=%v result=%+v", err, res)
			}
			if !strings.Contains(err.Error(), "want") {
				t.Errorf("error %q does not say what was expected", err)
			}
		})
	}
}

// shedTarget answers some traced requests 429, as an overloaded server
// would, and serves every other request, including the replays a traced
// run sends afterwards.
type shedTarget struct{ *serveTarget }

func (s shedTarget) do(o *op) {
	if o.traced && o.index%2 == 0 {
		o.status, o.body = http.StatusTooManyRequests, []byte(`{"error":"shed"}`)
		return
	}
	s.serveTarget.do(o)
}

// TestTracedRunNamesShedAnswers checks a traced run whose traced ops were
// partly shed still finishes, counts them and fails naming them: a shed
// answer has no span tree to break down or plan to replay.
func TestTracedRunNamesShedAnswers(t *testing.T) {
	wl, _ := findWorkload("serve-cold")
	cfg := smokeConfig(t, wl, true)
	tgt, err := setupTarget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := measure(cfg, shedTarget{tgt.(*serveTarget)}, 0, 0)
	if err == nil || res == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("shed answers passed: err=%v result=%+v", err, res)
	}
	if !strings.Contains(err.Error(), "status 429") {
		t.Errorf("error %q does not name the shed answers", err)
	}
}

// TestSpecMatchesBenchmarkJSON is the drift test: the workload and metric
// tables compiled into the binary must be exactly what BENCHMARK.json
// declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, binary %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/joinbench" {
		t.Errorf("paths %v, want [cmd/joinbench]", spec.Paths)
	}
	check := func(what string, file, binary any) {
		a, _ := json.Marshal(file)
		b, _ := json.Marshal(binary)
		if !bytes.Equal(a, b) {
			t.Errorf("%s drifted:\nBENCHMARK.json %s\nbinary         %s", what, a, b)
		}
	}
	check("workloads", spec.Workloads, workloads)
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRunRejectsBadUsage covers the command line's usage errors.
func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "analyze", "-trace", "2"},
		{"-workload", "analyze", "-seconds", "0"},
		{"-compare", "only-one.jsonl"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 7}, [3]float64{2, 5, 8}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestCompareRefusesMismatchedRuns checks -compare flags a regression
// beyond bound and spread, and refuses runs from different environments.
func TestCompareRefusesMismatchedRuns(t *testing.T) {
	metrics := map[string]metricSpec{"cpu_p90_ms": {Name: "cpu_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	run := func(seed int64, p90 float64, procs int) result {
		return result{
			Workload: "serve-hot", Seed: seed, Env: env{GoMaxProcs: procs},
			Metrics: map[string]metricValue{"cpu_p90_ms": {Value: p90, Unit: "ms"}},
		}
	}
	old := []result{run(1, 10, 2), run(2, 10.1, 2), run(3, 9.9, 2)}
	slower := []result{run(1, 13, 2), run(2, 13.2, 2), run(3, 12.9, 2)}
	var out, errb bytes.Buffer
	if code := compareRecords(old, slower, metrics, &out, &errb); code != 1 || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 30%% slower p90 gave exit %d:\n%s", code, out.String())
	}
	same := []result{run(1, 10.05, 2), run(2, 9.95, 2), run(3, 10, 2)}
	if code := compareRecords(old, same, metrics, &out, &errb); code != 0 {
		t.Errorf("an unchanged p90 gave exit %d", code)
	}
	otherProcs := []result{run(1, 10, 1), run(2, 10, 1), run(3, 10, 1)}
	if code := compareRecords(old, otherProcs, metrics, &out, &errb); code != 2 {
		t.Errorf("runs at different GOMAXPROCS gave exit %d, want a refusal", code)
	}
	otherSeeds := []result{run(4, 10, 2), run(5, 10, 2), run(6, 10, 2)}
	if code := compareRecords(old, otherSeeds, metrics, &out, &errb); code != 2 {
		t.Errorf("runs over different seeds gave exit %d, want a refusal", code)
	}
}
