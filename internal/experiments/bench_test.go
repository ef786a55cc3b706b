package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"multijoin/internal/obs"
)

// TestBenchReportValidatesAndPinsTau runs the bench corpus and checks
// the report against its own validator and the paper's pinned optima:
// the pipeline's τ numbers must agree with corpus_test.go's regression
// net, or the bench is measuring a different engine than the tests.
func TestBenchReportValidatesAndPinsTau(t *testing.T) {
	rep, err := RunBench(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBench(rep); err != nil {
		t.Fatal(err)
	}
	wantTau := map[string]int{
		"example1": 546, "example2": 20, "example3": 7, "example4": 11, "example5": 11,
	}
	seen := map[string]bool{}
	for _, c := range rep.Cases {
		seen[c.Name] = true
		if want, ok := wantTau[c.Name]; ok && c.Tau["all"] != want {
			t.Errorf("%s: τ(all) = %d, want %d", c.Name, c.Tau["all"], want)
		}
		if c.Counters["eval.tuples"] != c.Tuples {
			t.Errorf("%s: Tuples field %d diverges from eval.tuples counter %d",
				c.Name, c.Tuples, c.Counters["eval.tuples"])
		}
	}
	for name := range wantTau {
		if !seen[name] {
			t.Errorf("corpus missing %s", name)
		}
	}
}

// TestBenchJSONRoundTrip: the written report must decode and validate —
// the exact gate the CI bench job applies to the artifact.
func TestBenchJSONRoundTrip(t *testing.T) {
	rep, err := RunBench(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBench(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBench(back); err != nil {
		t.Fatal(err)
	}
}

// TestBenchDecodeRejectsBadDocuments covers the decoder's and the
// validator's failure modes: wrong schema, unknown fields, no cases.
func TestBenchDecodeRejectsBadDocuments(t *testing.T) {
	if _, err := DecodeBench(strings.NewReader(`{"schema":"nope"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := DecodeBench(strings.NewReader(
		`{"schema":"` + obs.BenchSchema + `","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	rep := &BenchReport{Schema: obs.BenchSchema}
	if err := ValidateBench(rep); err == nil {
		t.Error("empty report validated")
	}
}

// TestBenchDeterministicTau: the corpora are seeded, so two runs' facts
// — τ, every counter, regret and the acyclic separation — must match
// leaf for leaf. A timing leaf missing from benchFacts fails here first.
func TestBenchDeterministicTau(t *testing.T) {
	a, err := RunBench(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := firstDiff(benchFacts(t, a), benchFacts(t, b)); x != y {
		t.Errorf("two runs differ in a fact: the first has %s, the second %s", x, y)
	}
}

// TestBenchFactsMatchCommittedReport holds BENCH_joinopt.json to the
// engine: a fresh run's facts must equal the committed file's, leaf for
// leaf. The facts include float estimates and regrets, so the file is
// generated on linux/amd64, where CI runs.
func TestBenchFactsMatchCommittedReport(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "BENCH_joinopt.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	committed, err := DecodeBench(f)
	if err != nil {
		t.Fatalf("%v; regenerate the file with go run ./cmd/experiments -bench", err)
	}
	fresh, err := RunBench(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if x, y := firstDiff(benchFacts(t, committed), benchFacts(t, fresh)); x != y {
		t.Errorf("BENCH_joinopt.json has %s, a fresh run %s\n"+
			"If the change moves this fact on purpose, regenerate the file on linux/amd64 with\n"+
			"\tgo run ./cmd/experiments -bench\nand commit the diff.", x, y)
	}
}

// benchFacts projects a report onto its facts: it zeroes goMaxProcs and
// every timing leaf — the cases' wallNs; the planning section's exactNs,
// planNs, histNs and speedup, per case and in aggregate; the acyclic
// cases' wallNs — and flattens the rest into "path = value" leaves in a
// fixed order. rep itself is left as it was.
func benchFacts(t *testing.T, rep *BenchReport) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBench(&buf, rep); err != nil {
		t.Fatal(err)
	}
	facts, err := DecodeBench(&buf)
	if err != nil {
		t.Fatal(err)
	}
	facts.GoMaxProcs = 0
	for i := range facts.Cases {
		facts.Cases[i].WallNS = 0
	}
	if p := facts.Planning; p != nil {
		p.ExactNS, p.PlanNS, p.Speedup = 0, 0, 0
		for i := range p.Cases {
			c := &p.Cases[i]
			c.ExactNS, c.PlanNS, c.HistNS, c.Speedup = 0, 0, 0, 0
		}
	}
	if a := facts.Acyclic; a != nil {
		for i := range a.Cases {
			a.Cases[i].WallNS = 0
		}
	}
	buf.Reset()
	if err := WriteBench(&buf, facts); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var leaves []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(path+"."+k, v[k])
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s[%d]", path, i), e)
			}
		default:
			leaves = append(leaves, fmt.Sprintf("%s = %v", strings.TrimPrefix(path, "."), v))
		}
	}
	walk("", doc)
	return leaves
}

// firstDiff returns the first leaf where a and b differ, as each holds
// it ("(none)" past the end of the shorter), or two empty strings.
func firstDiff(a, b []string) (string, string) {
	for i := 0; i < len(a) || i < len(b); i++ {
		x, y := "(none)", "(none)"
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x != y {
			return x, y
		}
	}
	return "", ""
}

// TestBenchPlanningSection pins the v6 planning section: present,
// validated, covering the planning corpus with per-subspace regret
// under both models plus greedy early termination, and gating the
// validator: a missing section, a sub-unity regret, or a plan-only
// speedup under the floor must all fail.
func TestBenchPlanningSection(t *testing.T) {
	p, err := benchPlanning(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePlanningBench(p); err != nil {
		t.Fatal(err)
	}
	seen := map[string]PlanningCase{}
	for _, c := range p.Cases {
		seen[c.Name] = c
	}
	for _, want := range []string{"example1", "example5", "chain5x40", "star5x40", "cycle5x40", "clique4x40"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("planning corpus missing %s", want)
		}
	}
	// Example 1's chosen plans under the uniform model are pinned by the
	// paper: every subspace's regret is a ratio over the pinned optima.
	ex1 := seen["example1"]
	for _, r := range ex1.Uniform {
		if r.Space == "all" && r.Optimum != 546 {
			t.Errorf("example1 full-space optimum %d, want 546", r.Optimum)
		}
	}
	if ex1.GreedyEarly.Optimum != 546 {
		t.Errorf("example1 greedy-early optimum %d, want 546", ex1.GreedyEarly.Optimum)
	}

	if err := validatePlanningBench(nil); err == nil {
		t.Error("missing planning section validated")
	}
	empty := *p
	empty.Cases = nil
	if err := validatePlanningBench(&empty); err == nil {
		t.Error("planning section without cases validated")
	}
	subUnity := *p
	subUnity.Cases = append([]PlanningCase(nil), p.Cases...)
	broken := subUnity.Cases[0]
	broken.Uniform = append([]PlanningRegret(nil), broken.Uniform...)
	broken.Uniform[0].Regret = 0.5
	subUnity.Cases[0] = broken
	if err := validatePlanningBench(&subUnity); err == nil {
		t.Error("sub-unity regret validated — would mean the exact optimum is not optimal")
	}
	slow := *p
	slow.Speedup = planningSpeedupFloor / 2
	if err := validatePlanningBench(&slow); err == nil {
		t.Error("plan-only speedup below the floor validated")
	}
}

// TestBenchPlanningDeterministicChoices: the planning corpus is seeded,
// so the chosen plans' true τ, optima and state-independent regret must
// be identical across runs (walls of course differ).
func TestBenchPlanningDeterministicChoices(t *testing.T) {
	a, err := benchPlanning(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchPlanning(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cases) != len(b.Cases) {
		t.Fatalf("case counts differ: %d vs %d", len(a.Cases), len(b.Cases))
	}
	for i := range a.Cases {
		ca, cb := a.Cases[i], b.Cases[i]
		for j := range ca.Uniform {
			ra, rb := ca.Uniform[j], cb.Uniform[j]
			if ra.TrueTau != rb.TrueTau || ra.Optimum != rb.Optimum || ra.Est != rb.Est {
				t.Errorf("%s uniform %s not deterministic: %+v vs %+v", ca.Name, ra.Space, ra, rb)
			}
		}
		if ca.GreedyEarly.TrueTau != cb.GreedyEarly.TrueTau {
			t.Errorf("%s greedy-early not deterministic: %d vs %d",
				ca.Name, ca.GreedyEarly.TrueTau, cb.GreedyEarly.TrueTau)
		}
	}
}
