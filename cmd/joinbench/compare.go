package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads
// and its drift test checks.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// compareFiles compares two sets of runs, each a JSON Lines file of
// result records (one per run, as -out appends them). For every workload
// and metric it prints each side's median and interquartile range and
// the relative change of the medians, and flags a change only when it
// exceeds both the metric's bound in the spec (0 for layer metrics) and
// the larger of the two sides' relative IQRs. It refuses to compare
// workloads whose runs were recorded under different environments or
// seeds. Exit code: 0 no regression, 1 a flagged regression, 2 refused.
func compareFiles(oldPath, newPath, specPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 2
	}
	metrics := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		metrics[m.Name] = m
	}
	olds, err := readRecords(oldPath)
	if err == nil {
		var news []result
		news, err = readRecords(newPath)
		if err == nil {
			return compareRecords(olds, news, metrics, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "joinbench:", err)
	return 2
}

// runKey groups the runs of one workload in one mode.
type runKey struct {
	workload string
	trace    bool
}

func compareRecords(olds, news []result, metrics map[string]metricSpec, stdout, stderr io.Writer) int {
	group := func(rs []result) map[runKey][]result {
		out := map[runKey][]result{}
		for _, r := range rs {
			k := runKey{r.Workload, r.Trace}
			out[k] = append(out[k], r)
		}
		return out
	}
	a, b := group(olds), group(news)
	var keys []runKey
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "joinbench: the two files share no workload")
		return 2
	}
	code := 0
	for _, k := range keys {
		if err := sameConditions(a[k], b[k]); err != nil {
			fmt.Fprintf(stderr, "joinbench: refusing to compare %s (trace=%v): %v\n", k.workload, k.trace, err)
			code = 2
			continue
		}
		fmt.Fprintf(stdout, "%s trace=%v: %d old runs, %d new runs\n", k.workload, k.trace, len(a[k]), len(b[k]))
		fmt.Fprintf(stdout, "  %-38s %12s %9s %12s %9s %9s\n", "metric", "old median", "old IQR", "new median", "new IQR", "delta")
		for _, name := range metricNames(a[k], b[k]) {
			spec, known := metrics[name]
			if !known {
				continue
			}
			oldMed, oldIQR := medianIQR(values(a[k], name))
			newMed, newIQR := medianIQR(values(b[k], name))
			delta := relChange(oldMed, newMed)
			spread := math.Max(safeDiv(oldIQR, oldMed), safeDiv(newIQR, newMed))
			flag := ""
			if math.Abs(delta) > spec.Bound && math.Abs(delta) > spread {
				worse := (delta > 0) == (spec.Better == "lower")
				flag = "  better"
				if worse {
					flag = "  WORSE"
					if code == 0 {
						code = 1
					}
				}
			}
			fmt.Fprintf(stdout, "  %-38s %12.6g %8.1f%% %12.6g %8.1f%% %+8.1f%%%s\n",
				name, oldMed, 100*safeDiv(oldIQR, oldMed), newMed, 100*safeDiv(newIQR, newMed), 100*delta, flag)
		}
	}
	return code
}

// sameConditions fails when two sets of runs differ in anything but their
// measurements: every run's env must match, and both sides must have run
// the same seeds.
func sameConditions(a, b []result) error {
	ref := a[0].Env
	for _, r := range append(append([]result(nil), a...), b...) {
		if r.Env != ref {
			return fmt.Errorf("environment %+v differs from %+v", r.Env, ref)
		}
	}
	seeds := func(rs []result) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r.Seed
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	sa, sb := seeds(a), seeds(b)
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		return fmt.Errorf("old runs used seeds %v, new runs %v", sa, sb)
	}
	return nil
}

func metricNames(a, b []result) []string {
	seen := map[string]bool{}
	for _, r := range append(append([]result(nil), a...), b...) {
		for name := range r.Metrics {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// medianIQR returns the median and the distance between the first and
// third quartiles, the quartiles computed as Python's
// statistics.quantiles(values, n=4) computes them.
func medianIQR(xs []float64) (median, iqr float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], 0
	}
	q := quartiles(s)
	return q[1], q[2] - q[0]
}

// quartiles is statistics.quantiles(sorted, n=4) with the default
// exclusive method.
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}

// relChange is (new − old) / |old|, 0 when both are 0.
func relChange(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (new - old) / math.Abs(old)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return math.Abs(a / b)
}
