package main

import "time"

// The frozen benchmark definition. BENCHMARK.json at the repository root
// mirrors these tables (TestSpecMatchesBenchmarkJSON keeps the two in
// step); the rates, latency limits and warm-ups below were calibrated
// once, as the README describes, and are never recalibrated per run.

// runSeconds is how long one run measures by default (BENCHMARK.json's
// run_seconds).
const runSeconds = 20

// workloadSpec is one workload: its traffic shape and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Rate is the open-loop arrival rate in requests per second; 0 selects
	// a closed loop with one caller.
	Rate float64 `json:"-"`
	// Limit is the wall-clock latency an answer must meet to count toward
	// goodput.
	Limit time.Duration `json:"-"`
	// Warmup runs the same schedule, unmeasured, before the window.
	Warmup time.Duration `json:"-"`
}

var workloads = []workloadSpec{
	{
		Name:   "serve-cold",
		Why:    "open loop over 512 distinct small databases, twice the plan-cache size, so every query misses and planning (DP, exhaustive, ladder) does the work",
		Rate:   25,
		Limit:  time.Second,
		Warmup: 2 * time.Second,
	},
	{
		Name:   "serve-hot",
		Why:    "open loop over 32 databases cached before measuring starts, so every query is a plan-cache hit: decode, fingerprint, kernel execution and encode do the work",
		Rate:   80,
		Limit:  100 * time.Millisecond,
		Warmup: 2 * time.Second,
	},
	{
		Name:   "serve-wide",
		Why:    "open loop over 8 acyclic 5x5000-row databases planned from statistics or by Yannakakis: decode, catalog, semijoins and the partitioned join do the work",
		Rate:   5,
		Limit:  time.Second,
		Warmup: 2 * time.Second,
	},
	{
		Name:   "analyze",
		Why:    "closed loop, one caller of joinopt -format json on clique9, cycle9, random9, chain10 and star10: conditions, the four-space DP fan-out, certificates and Yannakakis",
		Rate:   0,
		Limit:  2 * time.Second,
		Warmup: 2 * time.Second,
	},
}

// metricSpec is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; layer metrics carry no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
}

var perLayer = []metricSpec{
	{Name: "serve.admission_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ladder_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ladder.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.request_self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.degraded_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.rung.exhaustive.share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rung.dp.share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rung.yannakakis.share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rung.greedy.share", Unit: "ratio", Better: "lower"},
	{Name: "serve.rung.estimate.share", Unit: "ratio", Better: "lower"},
	{Name: "database.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "database.eval.tuples_per_op", Unit: "count", Better: "lower"},
	{Name: "database.eval.states_per_op", Unit: "count", Better: "lower"},
	{Name: "database.eval.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "conditions.checkall_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.dp_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.dp.all_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.dp.no-cartesian_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.dp.linear_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.dp.linear-no-cartesian_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.fanout_saving_ms", Unit: "ms", Better: "higher"},
	{Name: "optimizer.dp.states_per_op", Unit: "count", Better: "lower"},
	{Name: "optimizer.model_dp_ms", Unit: "ms", Better: "lower"},
	{Name: "estimate.catalog_ms", Unit: "ms", Better: "lower"},
	{Name: "semijoin.yannakakis_ms", Unit: "ms", Better: "lower"},
	{Name: "semijoin.semijoins_per_op", Unit: "count", Better: "lower"},
	{Name: "semijoin.tuples_per_op", Unit: "count", Better: "lower"},
	{Name: "relation.join_ms", Unit: "ms", Better: "lower"},
	{Name: "relation.join_rows_in_per_op", Unit: "count", Better: "lower"},
	{Name: "relation.join_rows_out_per_op", Unit: "count", Better: "lower"},
	{Name: "relation.ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "relation.partitioned_share", Unit: "ratio", Better: "higher"},
	{Name: "core.verify_certificates_ms", Unit: "ms", Better: "lower"},
	{Name: "core.encode_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lateness_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
