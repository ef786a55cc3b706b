package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"multijoin/internal/cli"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
)

// The analyze workload: one caller running the joinopt command line,
// cli.Run(ctx, {"-file", f, "-format", "json"}), round-robin over five
// files, one of each shape in analyzeShapes.

// analyzeInput is one input file and the τ its analysis must report.
type analyzeInput struct {
	name string
	path string
	db   *database.Database
	an   *core.Analysis
	// tau maps each subspace (and "yannakakis" on acyclic schemes) to the
	// τ the sequential analysis found; size is |R_D|.
	tau  map[string]int
	size int
}

type analyzeTarget struct {
	inputs []analyzeInput
}

// analyzeShapes are the five inputs: a shape and its relation count.
var analyzeShapes = []struct {
	shape string
	n     int
}{{"clique", 9}, {"cycle", 9}, {"random", 9}, {"chain", 10}, {"star", 10}}

// Every input has analyzeRows rows per relation over a domain of
// analyzeDomain values.
const (
	analyzeRows   = 6
	analyzeDomain = 4
)

// buildAnalyze writes the input files into dir and computes their
// expected per-space τ with the sequential analyzer.
func buildAnalyze(seed int64, dir string) (*analyzeTarget, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &analyzeTarget{}
	for i, s := range analyzeShapes {
		name := fmt.Sprintf("%s%d", s.shape, s.n)
		db := gen.Uniform(rng, schemes(s.shape, s.n, int64(i)), analyzeRows, analyzeDomain)
		in := analyzeInput{name: name, path: filepath.Join(dir, name+".json"), db: db}
		var buf bytes.Buffer
		if err := database.EncodeJSON(&buf, db); err != nil {
			return nil, err
		}
		if err := os.WriteFile(in.path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		ev := database.NewEvaluator(db)
		an, err := core.AnalyzeEvaluatorSequential(ev)
		if err != nil {
			return nil, fmt.Errorf("analyzing %s: %w", name, err)
		}
		in.an, in.tau, in.size = an, map[string]int{}, ev.Size(db.All())
		for _, r := range an.Results {
			in.tau[r.Space.String()] = r.Cost
		}
		if an.Yannakakis != nil {
			in.tau[optimizer.SpaceYannakakis.String()] = an.Yannakakis.Tau
		}
		t.inputs = append(t.inputs, in)
	}
	return t, nil
}

func (t *analyzeTarget) prime() error { return nil }

// slot is the index of op o's input.
func (t *analyzeTarget) slot(o *op) int { return o.index % len(t.inputs) }

func (t *analyzeTarget) rotation() int { return len(t.inputs) }

func (t *analyzeTarget) input(o *op) *analyzeInput { return &t.inputs[t.slot(o)] }

// metricsPath is where a traced analysis of in writes -metrics-out.
func (in *analyzeInput) metricsPath() string { return in.path + ".metrics" }

// do runs one analysis; traced ops add -metrics-out, which turns on the
// CLI's recorder and guard.
func (t *analyzeTarget) do(o *op) {
	in := t.input(o)
	args := []string{"-file", in.path, "-format", "json"}
	if o.traced {
		args = append(args, "-metrics-out", in.metricsPath())
	}
	var stdout, stderr bytes.Buffer
	start := time.Now()
	o.status = cli.Run(context.Background(), args, &stdout, &stderr)
	o.wall = time.Since(start)
	o.body, o.stderr = stdout.Bytes(), stderr.String()
}

// collect reads a traced analysis's metrics snapshot.
func (t *analyzeTarget) collect(o *op) {
	if !o.traced {
		return
	}
	f, err := os.Open(t.input(o).metricsPath())
	if err != nil {
		o.err = err
		return
	}
	defer f.Close()
	if o.metrics, err = obs.DecodeMetrics(f); err != nil {
		o.err = err
	}
}

// cliReport is the part of the CLI's JSON analysis the check reads.
type cliReport struct {
	Optima []struct {
		Space string `json:"space"`
		Tau   int    `json:"tau"`
	} `json:"optima"`
	Yannakakis *struct {
		Tau int `json:"tau"`
	} `json:"yannakakis"`
}

// check verifies exit code 0 and every reported τ.
func (t *analyzeTarget) check(o *op) error {
	if o.err != nil {
		return o.err
	}
	in := t.input(o)
	if o.status != 0 {
		return fmt.Errorf("%s: exit code %d: %s", in.name, o.status, o.stderr)
	}
	var rep cliReport
	if err := json.Unmarshal(o.body, &rep); err != nil {
		return fmt.Errorf("%s: decoding the report: %w", in.name, err)
	}
	got := map[string]int{}
	for _, r := range rep.Optima {
		got[r.Space] = r.Tau
	}
	if rep.Yannakakis != nil {
		got[optimizer.SpaceYannakakis.String()] = rep.Yannakakis.Tau
	}
	if len(got) != len(in.tau) {
		return fmt.Errorf("%s: report has %d τ values, want %d", in.name, len(got), len(in.tau))
	}
	for space, want := range in.tau {
		if g, ok := got[space]; !ok || g != want {
			return fmt.Errorf("%s: %s τ = %d, want %d", in.name, space, g, want)
		}
	}
	return nil
}

func (t *analyzeTarget) sanity([]*op) error { return nil }

func (t *analyzeTarget) counters() map[string]int64 { return nil }

// layers sums the traced analyses' CLI counters, replays every layer of
// each input replayReps times (taking medians), reconciles the replayed
// parts with a -parallel-spaces=false CLI run's wall, and checks the
// workload still spends at least half its analysis in CheckAll.
func (t *analyzeTarget) layers(ops []*op, _ *window, cfg config) (map[string]float64, error) {
	m := map[string]float64{}
	totals := map[string]int64{}
	fanout := make([]time.Duration, len(t.inputs))
	runs := make([]int, len(t.inputs))
	traced := 0
	for _, o := range ops {
		if !o.traced || o.metrics == nil {
			continue
		}
		traced++
		for name, v := range o.metrics.Counters {
			totals[name] += v
		}
		i := t.slot(o)
		fanout[i] += time.Duration(o.metrics.Timers[obs.MetricAnalyzeParallelWall].TotalNS)
		runs[i]++
	}
	addCounterMetrics(m, func(name string) int64 { return totals[name] }, traced)
	if err := t.serveLayers(m); err != nil {
		return nil, err
	}

	// Replay each input; the rotation visits every input equally often, so
	// the mean over inputs is per op like the counters.
	replayed := make([]layerTimes, len(t.inputs))
	reads := make([]time.Duration, len(t.inputs))
	walls := make([]time.Duration, len(t.inputs))
	for i := range t.inputs {
		in := &t.inputs[i]
		var samples []layerTimes
		var rs, ws []time.Duration
		for r := 0; r < cfg.replayReps; r++ {
			lt, read, err := replayInput(in)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			wall, err := sequentialCLI(in)
			if err != nil {
				return nil, err
			}
			samples, rs, ws = append(samples, lt), append(rs, read), append(ws, wall)
		}
		replayed[i], reads[i], walls[i] = medianLayers(samples), median(rs), median(ws)
		if runs[i] > 0 {
			replayed[i].fanout = fanout[i] / time.Duration(runs[i])
		}
	}
	var parts, whole, checkAll time.Duration
	for i, lt := range replayed {
		parts += reads[i] + lt.analyzeParts()
		whole += walls[i]
		checkAll += lt.checkAll
	}
	addReplayMetrics(m, replayed)
	if !cfg.strict {
		return m, nil
	}
	if err := reconcile("analyze: replayed layers vs -parallel-spaces=false CLI wall", parts, whole, reconcileTolerance); err != nil {
		return nil, err
	}
	if float64(checkAll) < 0.5*float64(parts) {
		return nil, fmt.Errorf("analyze: conditions.CheckAll is %.1f%% of the replayed analysis, want ≥ 50%%",
			100*float64(checkAll)/float64(parts))
	}
	return m, nil
}

// serveLayers reads the serve layer metrics from the inputs sent to a
// server configured like the serve workloads' as
// exact, executed, uncached /v1/query requests. The CLI path never enters
// the serve layer; these figures say what serving the same inputs costs.
// Every answer is checked like a serve workload's.
func (t *analyzeTarget) serveLayers(m map[string]float64) error {
	st, err := newServeTarget("analyze")
	if err != nil {
		return err
	}
	for i := range t.inputs {
		in := &t.inputs[i]
		want := serveCase{size: in.size, tau: int64(in.tau[optimizer.SpaceAll.String()])}
		if err := st.add(in.db, "standard", true, []string{""}, want); err != nil {
			return err
		}
	}
	ops := make([]*op, len(t.inputs))
	for i := range ops {
		ops[i] = &op{index: i}
		st.do(ops[i])
		if err := st.check(ops[i]); err != nil {
			return fmt.Errorf("%s served: %w", t.inputs[i].name, err)
		}
	}
	addAnswerMetrics(m, ops)
	return addSpanMetrics(m, ops)
}

// replayInput times reading, decoding and every analysis layer of one
// input, returning the layer times and the read time.
func replayInput(in *analyzeInput) (layerTimes, time.Duration, error) {
	var lt layerTimes
	start := time.Now()
	data, err := os.ReadFile(in.path)
	read := time.Since(start)
	if err != nil {
		return lt, 0, err
	}
	start = time.Now()
	db, err := database.DecodeJSON(bytes.NewReader(data))
	lt.decode = time.Since(start)
	if err != nil {
		return lt, 0, err
	}
	if err := lt.replayPlanning(db, false); err != nil {
		return lt, 0, err
	}
	if res, ok := in.an.Result(optimizer.SpaceAll); ok {
		if err := lt.replayJoins(db, res.Strategy, in.size); err != nil {
			return lt, 0, err
		}
	}
	if err := lt.replayAnalysis(db, in.an, false); err != nil {
		return lt, 0, err
	}
	return lt, read, nil
}

// sequentialCLI times one -parallel-spaces=false analysis of in.
func sequentialCLI(in *analyzeInput) (time.Duration, error) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := cli.Run(context.Background(), []string{"-file", in.path, "-format", "json", "-parallel-spaces=false"}, &stdout, &stderr)
	wall := time.Since(start)
	if code != 0 {
		return 0, fmt.Errorf("%s: sequential CLI run exited %d: %s", in.name, code, stderr.String())
	}
	return wall, nil
}
