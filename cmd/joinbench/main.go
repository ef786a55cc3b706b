// Command joinbench is the repository's benchmark. It drives the engine
// end to end — a joinserve handler in process, or the joinopt command
// line — on one of four workloads generated from a seed, checks every
// answer against precomputed expected results, and prints each metric by
// name and unit. A traced run adds the per-layer breakdown.
//
// Usage:
//
//	joinbench -workload serve-cold -seed 1 -seconds 20 -trace 0
//	joinbench -workload analyze -trace 1
//	joinbench -workload serve-hot -seed 3 -out runs.jsonl
//	joinbench -compare old.jsonl new.jsonl
//	joinbench -workload serve-wide -calibrate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// answer was right and every gate held, 1 otherwise, 2 on bad usage.
// README.md lists the workloads, the metrics and their bounds, and how
// the rates were calibrated.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	wl     workloadSpec
	seed   int64
	dur    time.Duration
	warmup time.Duration
	trace  bool
	procs  int
	// dir holds the files a run writes (the analyze inputs).
	dir string
	// setupReps is how many times setup runs; setup_s is the median.
	setupReps int
	// replayReps is how many times a traced analyze run replays each
	// input's layers.
	replayReps int
	// strict enforces the gates only a full-length run can meet: ten
	// samples beyond every reported percentile, and a dispatcher that kept
	// to its schedule.
	strict bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("joinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: serve-cold|serve-hot|serve-wide|analyze")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "seconds measured after the workload's warm-up")
	trace := fs.Int("trace", 0, "1 runs the traced variant, which reports the per-layer metrics")
	procs := fs.Int("procs", runtime.NumCPU(), "GOMAXPROCS for the run (recorded in the result)")
	out := fs.String("out", "", "append the full result record (env, samples, every metric) to this JSON Lines file")
	compare := fs.Bool("compare", false, "compare two JSON Lines result files: -compare OLD NEW")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark spec whose bounds -compare applies")
	calibrate := fs.Bool("calibrate", false, "measure the workload's closed-loop capacity")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "joinbench: -compare takes two result files, OLD and NEW")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *spec, stdout, stderr)
	}
	wl, ok := findWorkload(*workload)
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *procs < 1 {
		fmt.Fprintln(stderr, "joinbench: want -workload serve-cold|serve-hot|serve-wide|analyze, -trace 0|1, positive -seconds and -procs")
		return 2
	}
	dir, err := makeWorkdir()
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	cfg := config{
		wl:         wl,
		seed:       *seed,
		dur:        time.Duration(*seconds * float64(time.Second)),
		warmup:     wl.Warmup,
		trace:      *trace == 1,
		procs:      *procs,
		dir:        dir,
		setupReps:  3,
		replayReps: 3,
		strict:     true,
	}
	if *calibrate {
		return calibrateCapacity(cfg, stdout, stderr)
	}

	res, err := benchmark(cfg)
	if res != nil {
		writeReport(stdout, res)
		if *out != "" {
			if werr := appendRecord(*out, res); werr != nil {
				err = errors.Join(err, werr)
			}
		}
		if metrics, ok := res.reported(); ok {
			data, merr := json.Marshal(line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
			if merr != nil {
				err = errors.Join(err, merr)
			} else {
				fmt.Fprintln(stdout, string(data))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 1
	}
	return 0
}

// makeWorkdir creates a directory for the run's files under .bench_build
// in the working directory, the one place the benchmark writes.
func makeWorkdir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(".bench_build", "joinbench-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// setupTarget generates the workload's inputs, computes the expected
// answers and boots the system under test.
func setupTarget(cfg config) (target, error) {
	switch cfg.wl.Name {
	case "serve-cold":
		return buildCold(cfg.seed)
	case "serve-hot":
		return buildHot(cfg.seed)
	case "serve-wide":
		return buildWide(cfg.seed)
	case "analyze":
		return buildAnalyze(cfg.seed, cfg.dir)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.wl.Name)
}

// benchmark sets the workload up setupReps times, keeping the last, and
// measures it.
func benchmark(cfg config) (*result, error) {
	runtime.GOMAXPROCS(cfg.procs)
	var tgt target
	var cpu, wall []time.Duration
	for r := 0; r < cfg.setupReps; r++ {
		runtime.GC()
		start, startCPU := time.Now(), processCPU()
		t, err := setupTarget(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cpu, wall = append(cpu, processCPU()-startCPU), append(wall, time.Since(start))
		tgt = t
	}
	runtime.GC()
	return measure(cfg, tgt, median(cpu), median(wall))
}

// measure runs the warm-up and the measured window, checks every answer,
// and computes the run's metrics; setupCPU and setupWall are the median
// set-up's CPU and wall time. The result is returned even when a check
// or gate fails, alongside the error naming it.
func measure(cfg config, tgt target, setupCPU, setupWall time.Duration) (*result, error) {
	if err := tgt.prime(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var ops []*op
	var win *window
	var err error
	if cfg.wl.Rate > 0 {
		ops, win, err = driveOpen(tgt, cfg.wl.Rate, cfg.warmup, cfg.dur, cfg.trace)
	} else {
		// A full-length run goes on past the window, under heavy CPU steal,
		// until the p90 has its ten samples beyond it.
		minOps := 1
		if cfg.strict {
			minOps = tailOps
		}
		ops, win, err = driveClosed(tgt, cfg.warmup, cfg.dur, minOps, cfg.trace)
	}
	if err != nil {
		return nil, err
	}

	res := &result{
		Workload: cfg.wl.Name, Seed: cfg.seed, Trace: cfg.trace, Env: currentEnv(cfg),
		Attempted: len(ops), Samples: map[string]int{},
		Metrics: map[string]metricValue{}, Wall: map[string]float64{},
	}
	var errs []error
	var measured []*op
	for _, o := range ops {
		if o.err = tgt.check(o); o.err != nil {
			res.Failed++
			if res.Failed <= 3 {
				errs = append(errs, fmt.Errorf("op %d: %w", o.index, o.err))
			}
		}
		if o.measured {
			measured = append(measured, o)
		}
	}
	res.Correct = res.Failed == 0
	if res.Failed > 0 {
		errs = append([]error{fmt.Errorf("%d of %d answers failed their check", res.Failed, res.Attempted)}, errs...)
	}
	if len(measured) == 0 {
		return res, errors.Join(append(errs, errors.New("no op fell inside the measured window"))...)
	}

	var cpu, lat, late, tracedCPU, untracedCPU []time.Duration
	good := 0
	for _, o := range measured {
		cpu, lat, late = append(cpu, o.cpu), append(lat, o.latency()), append(late, o.lateness)
		if o.traced {
			tracedCPU = append(tracedCPU, o.cpu)
		} else {
			untracedCPU = append(untracedCPU, o.cpu)
		}
		if o.err == nil && o.latency() <= cfg.wl.Limit {
			good++
		}
	}
	var totalCPU time.Duration
	for _, c := range cpu {
		totalCPU += c
	}
	cpu90, beyond := percentile(sortedDurations(cpu), 0.90)
	if cfg.strict && beyond < 10 {
		errs = append(errs, fmt.Errorf("cpu_p90_ms has %d samples beyond it, want at least 10 (%d samples)", beyond, len(cpu)))
	}
	rss := make([]float64, len(measured))
	for i, o := range measured {
		rss[i] = o.rss
	}
	sort.Float64s(rss)
	medianRSS := rss[len(rss)/2]
	if rss[0] == 0 {
		errs = append(errs, errors.New("could not read the resident set size from /proc/self/statm"))
	}
	res.set(endToEnd, "setup_s", setupCPU.Seconds())
	res.set(endToEnd, "cpu_ms_per_op", ms(totalCPU)/float64(len(cpu)))
	res.set(endToEnd, "cpu_p90_ms", ms(cpu90))
	res.set(endToEnd, "alloc_mb_per_op", float64(win.allocAfter-win.allocBefore)/float64(len(measured))/(1<<20))
	res.set(endToEnd, "rss_mb", medianRSS)
	res.Samples["cpu_ms_per_op"], res.Samples["cpu_p90_ms"] = len(cpu), len(cpu)

	// Wall-clock figures, reported beside the metrics but not gated: on a
	// shared machine they move with the CPU other tenants take. goodput
	// counts verified answers within the latency limit per second.
	sortedLat := sortedDurations(lat)
	lateP99, _ := percentile(sortedDurations(late), 0.99)
	for _, q := range []float64{0.50, 0.90, 0.99} {
		v, _ := percentile(sortedLat, q)
		res.Wall[fmt.Sprintf("latency_p%02.0f_ms", 100*q)] = ms(v)
	}
	res.Wall["goodput_rps"] = float64(good) / win.lastEnd.Sub(win.start).Seconds()
	res.Wall["setup_s"] = setupWall.Seconds()
	res.Wall["lateness_p99_ms"] = ms(lateP99)
	if cfg.strict && cfg.wl.Rate > 0 && lateP99 > cfg.wl.Limit/2 {
		errs = append(errs, fmt.Errorf("the dispatcher ran %.3f ms late at p99, over half the %v latency limit: the generator, not the system, set the latencies, so the run is invalid", ms(lateP99), cfg.wl.Limit))
	}
	if err := tgt.sanity(measured); err != nil {
		errs = append(errs, err)
	}

	if cfg.trace {
		m, err := tgt.layers(ops, win, cfg)
		if err != nil {
			errs = append(errs, fmt.Errorf("traced run: %w", err))
		} else {
			traced50, _ := percentile(sortedDurations(tracedCPU), 0.50)
			untraced50, _ := percentile(sortedDurations(untracedCPU), 0.50)
			m["trace.overhead_ratio"] = ratio(float64(traced50), float64(untraced50))
			m["loadgen.lateness_p99_ms"] = ms(lateP99)
			for name, v := range m {
				res.set(perLayer, name, v)
			}
			res.Samples["loadgen.lateness_p99_ms"] = len(late)
		}
	}
	return res, errors.Join(errs...)
}

// calibrateCapacity runs the workload closed loop and reports the
// capacity its open-loop rate was frozen against.
func calibrateCapacity(cfg config, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(cfg.procs)
	tgt, err := setupTarget(cfg)
	if err == nil {
		err = tgt.prime()
	}
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 1
	}
	ops, win, err := driveClosed(tgt, cfg.warmup, cfg.dur, 1, false)
	if err != nil {
		fmt.Fprintln(stderr, "joinbench:", err)
		return 1
	}
	n := 0
	for _, o := range ops {
		if o.measured {
			n++
		}
	}
	capacity := float64(n) / win.lastEnd.Sub(win.start).Seconds()
	fmt.Fprintf(stdout, "%s: a closed loop sustains %.1f ops/s; the frozen open-loop rate is %g/s (%.0f%%)\n",
		cfg.wl.Name, capacity, cfg.wl.Rate, 100*cfg.wl.Rate/capacity)
	return 0
}
