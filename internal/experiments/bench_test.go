package experiments

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"multijoin/internal/obs"
)

// TestBenchReportValidatesAndPinsTau runs the bench corpus and checks
// the report against its own validator and the paper's pinned optima:
// the pipeline's τ numbers must agree with corpus_test.go's regression
// net, or the bench is measuring a different engine than the tests.
func TestBenchReportValidatesAndPinsTau(t *testing.T) {
	rep, err := RunBench(context.Background(), io.Discard)
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
	rep, err := RunBench(context.Background(), io.Discard)
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
	if back.Totals != rep.Totals {
		t.Errorf("totals changed in round trip: %+v vs %+v", back.Totals, rep.Totals)
	}
}

// TestBenchDecodeRejectsBadDocuments covers the validator's failure
// modes: wrong schema, unknown fields, inconsistent totals.
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
	rep.Cases = []BenchCase{{Name: "x", Tau: map[string]int{"all": 1}, WallNS: 1, States: 1}}
	rep.Totals = BenchTotals{Cases: 2}
	if err := ValidateBench(rep); err == nil {
		t.Error("inconsistent totals validated")
	}
}

// TestBenchDeterministicTau: the corpus is seeded, so τ and state
// counts must be identical across runs (timings of course differ).
func TestBenchDeterministicTau(t *testing.T) {
	a, err := RunBench(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cases) != len(b.Cases) {
		t.Fatalf("case counts differ: %d vs %d", len(a.Cases), len(b.Cases))
	}
	for i := range a.Cases {
		ca, cb := a.Cases[i], b.Cases[i]
		if ca.Name != cb.Name || ca.Tuples != cb.Tuples || ca.States != cb.States {
			t.Errorf("case %s not deterministic: %+v vs %+v", ca.Name, ca, cb)
		}
		for sp, tau := range ca.Tau {
			if cb.Tau[sp] != tau {
				t.Errorf("%s: τ(%s) differs across runs: %d vs %d", ca.Name, sp, tau, cb.Tau[sp])
			}
		}
	}
}

// TestBenchKernelSection pins the v2 kernel micro-benchmark section:
// present, validated, and actually exercising both join paths.
func TestBenchKernelSection(t *testing.T) {
	rep, err := RunBench(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]KernelBench{}
	for _, k := range rep.Kernel {
		names[k.Name] = k
	}
	for _, want := range []string{"join-seq", "join-par", "semijoin", "insert-dedup"} {
		if _, ok := names[want]; !ok {
			t.Errorf("kernel section missing %s", want)
		}
	}
	if k := names["join-seq"]; k.Partitions != 0 {
		t.Errorf("join-seq reports %d partitions, want 0", k.Partitions)
	}
	if k := names["join-par"]; k.Partitions == 0 {
		t.Error("join-par did not take the partitioned path")
	}

	// The validator gates on the section: stripping it must fail.
	stripped := *rep
	stripped.Kernel = nil
	if err := ValidateBench(&stripped); err == nil {
		t.Error("report without kernel section validated")
	}
	seqOnly := *rep
	seqOnly.Kernel = []KernelBench{{Name: "x", Iters: 1, NsPerOp: 1}}
	if err := ValidateBench(&seqOnly); err == nil {
		t.Error("report with no partitioned kernel case validated")
	}
}

// TestBenchServeSection pins the v5 serve section: present, internally
// consistent — including the per-tenant breakdown and the latency
// histograms — and gating the validator: a report missing it, one whose
// outcomes do not partition the run, or one whose histograms did not
// observe every request must fail.
func TestBenchServeSection(t *testing.T) {
	s, err := benchServe(context.Background(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateServeBench(s); err != nil {
		t.Fatal(err)
	}
	if s.Requests != serveBenchRequests {
		t.Errorf("measured %d requests, want %d", s.Requests, serveBenchRequests)
	}
	if s.Shed == 0 || s.CacheHits == 0 {
		t.Errorf("load mix failed to exercise shedding (%d) or the cache (%d)", s.Shed, s.CacheHits)
	}
	for _, class := range []string{"bench-tiny", "bench-wide"} {
		if s.PerTenant[class] == nil || s.PerTenant[class].Requests == 0 {
			t.Errorf("serve section has no per-tenant stats for %q", class)
		}
	}
	if ts := s.PerTenant["bench-tiny"]; ts != nil && ts.Shed == 0 {
		t.Error("the 1-slot bench-tiny class shed nothing")
	}

	// The validator gates on the section and its partition invariant.
	if err := validateServeBench(nil); err == nil {
		t.Error("missing serve section validated")
	}
	broken := *s
	broken.OK++
	if err := validateServeBench(&broken); err == nil {
		t.Error("non-partitioning serve outcomes validated")
	}
	violated := *s
	violated.Failed, violated.OK = violated.OK, 0
	if err := validateServeBench(&violated); err == nil {
		t.Error("serve section with protocol violations validated")
	}
	noTenants := *s
	noTenants.PerTenant = nil
	if err := validateServeBench(&noTenants); err == nil {
		t.Error("serve section without a per-tenant breakdown validated")
	}
	noHist := *s
	noHist.LatencyHist = nil
	if err := validateServeBench(&noHist); err == nil {
		t.Error("serve section without latency histograms validated")
	}
	short := *s
	short.LatencyHist = append([]obs.HistogramStats(nil), s.LatencyHist...)
	short.LatencyHist = short.LatencyHist[:len(short.LatencyHist)-1]
	if err := validateServeBench(&short); err == nil {
		t.Error("histograms observing fewer requests than issued validated")
	}
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
