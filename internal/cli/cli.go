// Package cli implements the joinopt command: analyzing a database in
// the paper's framework (conditions, theorem certificates, per-subspace
// optima), costing individual strategies, and running the semijoin
// reducer. It is a separate package so the command's behaviour is
// testable end to end.
//
// Every run is resource-governed: -timeout, -max-tuples and -max-states
// bound wall clock, materialized intermediate tuples (the paper's τ) and
// examined states. A tripped budget aborts with a typed error naming the
// phase that was cut, and the exhaustive listings (-optima, -strategies)
// degrade along the ladder exhaustive → DP → greedy instead of failing
// outright. A panic boundary converts internal invariant panics into
// errors, so malformed input cannot crash the process.
//
// Every run is also observable: -metrics-out and -trace-out emit
// schema-versioned JSON (the counter/timer snapshot and the structured
// event stream), and -debug-addr serves expvar plus net/http/pprof for
// live profiling of long evaluations. With none of the three set, no
// recorder is allocated and the instrumented hot paths reduce to nil
// checks.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/exitcode"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/paperex"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// Run executes the joinopt command line. It writes human output to
// stdout, errors to stderr, and returns the process exit code. The
// caller owns the root context — main passes its process context, so a
// `-timeout` budget derives from it instead of a fresh background
// context and external cancellation reaches the guard.
func Run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("joinopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	example := fs.Int("example", 0, "analyze paper example 1-5")
	file := fs.String("file", "", "analyze a database from a JSON file")
	genShape := fs.String("gen", "", "generate a database: chain|star|cycle|clique")
	n := fs.Int("n", 4, "relations to generate")
	rows := fs.Int("rows", 6, "tuples per generated relation")
	domain := fs.Int("domain", 4, "domain size for generated values")
	seed := fs.Int64("seed", 1, "generator seed")
	diagonal := fs.Bool("diagonal", false, "generate superkey-join (C3) data instead of uniform")
	listStrategies := fs.Bool("strategies", false, "enumerate every strategy with its τ (small databases)")
	emitJSON := fs.Bool("json", false, "print the database as JSON before analyzing")
	costExpr := fs.String("cost", "", "cost and trace one strategy, e.g. '((R1 R2) R3)'")
	reduce := fs.Bool("reduce", false, "run the Bernstein–Chiu full reducer and report sizes")
	format := fs.String("format", "text", "analysis output format: text|json")
	optima := fs.Bool("optima", false, "list every τ-optimum strategy per subspace (small databases)")
	csvDir := fs.String("csv", "", "load the database from headered .csv files in a directory")
	dotExpr := fs.String("dot", "", "emit a Graphviz rendering of one strategy, e.g. '((R1 R2) R3)'")
	planMode := fs.String("plan", "exact", "planning mode: exact|estimate|histogram|yannakakis (estimate modes choose plans from statistics alone; yannakakis runs the acyclic semijoin fast path)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run, e.g. 500ms (0 = none)")
	maxTuples := fs.Int64("max-tuples", 0, "budget on materialized intermediate tuples, the paper's τ (0 = unlimited)")
	maxStates := fs.Int64("max-states", 0, "budget on evaluator memo + optimizer DP states examined (0 = unlimited)")
	fs.Bool("parallel-spaces", true, "ignored: the four subspace optimizations always run one at a time")
	metricsOut := fs.String("metrics-out", "", "write the run's counter/gauge/timer snapshot as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the run's structured event trace as JSON to this file")
	debugAddr := fs.String("debug-addr", "", "serve expvar and net/http/pprof on this address, e.g. :6060")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// The recorder exists only when some observability surface asked for
	// it; otherwise every instrumented path stays a nil check. A recorder
	// implies a guard (possibly unlimited), so phase labels and the
	// guard-spend gauges flow even on unbudgeted observed runs.
	var rec *obs.Recorder
	if *metricsOut != "" || *traceOut != "" || *debugAddr != "" {
		rec = obs.NewRecorder()
	}

	cancel := func() {}
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	var g *guard.Guard
	if *timeout > 0 || *maxTuples > 0 || *maxStates > 0 || rec != nil {
		g = guard.New(ctx, guard.Limits{MaxTuples: *maxTuples, MaxStates: *maxStates})
	}

	if *debugAddr != "" {
		srv, addr, derr := obs.DebugServer(*debugAddr, rec)
		if derr != nil {
			fmt.Fprintln(stderr, "joinopt:", derr)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "joinopt: debug server on http://%s/debug/pprof/\n", addr)
	}

	err := func() (err error) {
		// Panic boundary: internal invariant violations and malformed
		// input degrade to reported errors, never a crash.
		defer guard.Protect(&err)

		setPhase(g, rec, "load")
		var db *database.Database
		if *csvDir != "" {
			db, err = database.LoadCSVDir(*csvDir)
		} else {
			db, err = loadDatabase(*example, *file, *genShape, *n, *rows, *domain, *seed, *diagonal)
		}
		if err != nil {
			// Whatever went wrong loading, the caller supplied it:
			// missing file, malformed JSON/CSV, unknown shape.
			return exitcode.Input(err)
		}
		if *emitJSON {
			if err := database.EncodeJSON(stdout, db); err != nil {
				return err
			}
		}
		switch {
		case *dotExpr != "":
			st, err := strategy.Parse(db, *dotExpr)
			if err != nil {
				return exitcode.Input(err)
			}
			setPhase(g, rec, "render")
			ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
			fmt.Fprint(stdout, strategy.DOT(ev, st))
			return nil
		case *costExpr != "":
			return costOne(stdout, db, g, rec, *costExpr)
		case *reduce:
			return reduceReport(stdout, db, g, rec)
		case *planMode == "yannakakis":
			return planYannakakis(stdout, db, g, rec)
		case *planMode != "exact":
			return planEstimated(stdout, db, g, rec, *planMode)
		case *optima:
			return listOptima(stdout, db, g, rec)
		case *format == "json":
			an, err := core.AnalyzeEvaluator(database.NewEvaluator(db).WithGuard(g).WithRecorder(rec))
			if err != nil {
				return err
			}
			if err := core.VerifyCertificates(an); err != nil {
				return err
			}
			if err := core.EncodeAnalysisJSON(stdout, db, an); err != nil {
				return err
			}
			return truncationError(an)
		case *format != "text":
			return exitcode.Input(fmt.Errorf("unknown format %q", *format))
		default:
			return analyze(stdout, db, g, rec, *listStrategies)
		}
	}()
	// Metrics and trace are written even for failed runs — a tripped or
	// crashed evaluation is exactly when the numbers matter most.
	if rec != nil {
		recordGuardGauges(rec, g)
		if werr := writeObsFiles(rec, *metricsOut, *traceOut); werr != nil {
			fmt.Fprintln(stderr, "joinopt:", werr)
			if err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "joinopt:", err)
		if guard.Tripped(err) {
			reportBudget(stderr, g, err)
		}
		// The exit code classifies the failure — budget-tripped (4),
		// malformed input (3) and internal (1) are different operator
		// actions (raise the budget / fix the input / file a bug), so
		// scripts and CI must be able to tell them apart blind.
		return exitcode.Classify(err)
	}
	return 0
}

// setPhase labels both the guard and the recorder (either may be nil)
// with a CLI-level phase, so budget trips and trace events from
// command-specific work name where they happened.
func setPhase(g *guard.Guard, rec *obs.Recorder, name string) {
	g.SetPhase(name)
	rec.SetPhase(name)
}

// recordGuardGauges copies the guard's atomic snapshot into the
// recorder's gauges, so the metrics JSON carries the authoritative
// spent/limit triples next to the engine's own counters and the two can
// be reconciled offline.
func recordGuardGauges(rec *obs.Recorder, g *guard.Guard) {
	if g == nil {
		return
	}
	snap := g.Snapshot()
	rec.Gauge(obs.MetricGuardSpentTuples).Set(snap.Tuples.Spent)
	rec.Gauge(obs.MetricGuardLimitTuples).Set(snap.Tuples.Limit)
	rec.Gauge(obs.MetricGuardSpentStates).Set(snap.States.Spent)
	rec.Gauge(obs.MetricGuardLimitStates).Set(snap.States.Limit)
	rec.Gauge(obs.MetricGuardSpentSteps).Set(snap.Steps.Spent)
	rec.Gauge(obs.MetricGuardLimitSteps).Set(snap.Steps.Limit)
}

// writeObsFiles writes the metrics snapshot and the structured trace to
// the requested paths (either may be empty).
func writeObsFiles(rec *obs.Recorder, metricsOut, traceOut string) error {
	write := func(path string, emit func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(metricsOut, rec.WriteMetrics); err != nil {
		return err
	}
	return write(traceOut, rec.WriteTrace)
}

// reportBudget prints the guard's atomic spent/limit snapshot after a
// tripped run, so the user sees in one line which budget was exhausted,
// in which phase, and how far the others got. The phase is the one the
// typed error names: a truncated analysis runs later phases after the
// cut, so the guard's last label may name one that never tripped.
func reportBudget(w io.Writer, g *guard.Guard, err error) {
	if g == nil {
		return
	}
	snap := g.Snapshot()
	var (
		be *guard.BudgetError
		ce *guard.CancelError
		se *database.SizeError
	)
	switch {
	case errors.As(err, &be):
		snap.Phase = be.Phase
	case errors.As(err, &ce):
		snap.Phase = ce.Phase
	case errors.As(err, &se):
		snap.Phase = se.Phase
	}
	fmt.Fprintf(w, "joinopt: budget report: phase=%s tuples=%s states=%s steps=%s\n",
		snap.Phase, usageString(snap.Tuples), usageString(snap.States), usageString(snap.Steps))
}

// usageString renders one spent/limit pair, with "∞" for unlimited.
func usageString(u guard.Usage) string {
	if u.Limit <= 0 {
		return fmt.Sprintf("%d/∞", u.Spent)
	}
	return fmt.Sprintf("%d/%d", u.Spent, u.Limit)
}

// truncationError converts a truncated analysis into the typed
// governance error of its first cut phase, wrapped with the phase list,
// so the exit code reflects that the report is partial.
func truncationError(an *core.Analysis) error {
	if an.Complete() {
		return nil
	}
	return fmt.Errorf("analysis truncated in phase %q: %w", an.Truncated[0].Phase, an.Truncated[0].Err)
}

func loadDatabase(example int, file, genShape string, n, rows, domain int, seed int64, diagonal bool) (*database.Database, error) {
	switch {
	case example != 0:
		switch example {
		case 1:
			return paperex.Example1(), nil
		case 2:
			return paperex.Example2(), nil
		case 3:
			return paperex.Example3(), nil
		case 4:
			return paperex.Example4(), nil
		case 5:
			return paperex.Example5(), nil
		}
		return nil, fmt.Errorf("the paper has examples 1 through 5, not %d", example)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return database.DecodeJSON(f)
	case genShape != "":
		var shape gen.Shape
		switch genShape {
		case "chain":
			shape = gen.Chain
		case "star":
			shape = gen.Star
		case "cycle":
			shape = gen.Cycle
		case "clique":
			shape = gen.Clique
		default:
			return nil, fmt.Errorf("unknown shape %q", genShape)
		}
		rng := rand.New(rand.NewSource(seed))
		schemes := gen.Schemes(shape, n)
		if diagonal {
			return gen.Diagonal(rng, schemes, rows, 0.6), nil
		}
		return gen.Uniform(rng, schemes, rows, domain), nil
	}
	return nil, errors.New("pick one of -example, -file or -gen (see -h)")
}

// costOne parses a strategy expression and prints its evaluation trace.
func costOne(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder, expr string) (err error) {
	defer guard.Trap(&err)
	s, err := strategy.Parse(db, expr)
	if err != nil {
		return exitcode.Input(err)
	}
	if s.Set() != db.All() {
		return exitcode.Input(fmt.Errorf("strategy covers %v, not the whole database", s.Set()))
	}
	setPhase(g, rec, "trace")
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	tr := strategy.TraceEvaluation(ev, s)
	fmt.Fprintln(w, tr)
	fmt.Fprintf(w, "linear: %v   uses Cartesian products: %v   monotone: decreasing=%v increasing=%v\n",
		s.IsLinear(), s.UsesCartesian(db.Graph()),
		tr.MonotoneDecreasing(), tr.MonotoneIncreasing())
	setPhase(g, rec, "optimize:all")
	best, err := optimizer.Optimize(ev, optimizer.SpaceAll)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "τ-optimum for comparison: τ=%d  %s\n", best.Cost, best.Strategy.Render(db))
	return nil
}

// planEstimated is the -plan=estimate|histogram path: choose one
// strategy per subspace (plus greedy) from the statistics model alone —
// no join executes during planning — then execute only the chosen plans
// to report what the estimates actually bought.
func planEstimated(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder, mode string) error {
	var model core.PlanModel
	switch mode {
	case "estimate":
		model = core.ModelUniform
	case "histogram":
		model = core.ModelHistogram
	default:
		return exitcode.Input(fmt.Errorf("unknown plan mode %q (want exact|estimate|histogram|yannakakis)", mode))
	}
	setPhase(g, rec, "plan")
	an, err := core.AnalyzeEstimated(db, model, g, rec)
	if err != nil {
		return err
	}
	setPhase(g, rec, "execute")
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	if err := an.ExecuteChosen(ev); err != nil {
		return err
	}
	fmt.Fprintf(w, "estimate-driven planning (%s model): strategies chosen without executing a join\n", an.Model)
	for _, r := range append(an.Results, an.Greedy) {
		fmt.Fprintf(w, "  %-13s est τ≈%-10.0f true τ=%-8d states=%-6d %s\n",
			r.Space, r.Est, r.TrueTau, r.States, r.Strategy.Render(db))
	}
	return nil
}

// planYannakakis is the -plan=yannakakis path: run the governed acyclic
// fast path end to end — the full semijoin reduction along the scheme's
// GYO join trees, then the bottom-up join along the same trees — and
// report the semijoin program, the join-phase τ, and the equivalent
// binary strategy. Cyclic schemes are rejected as a user-input error.
func planYannakakis(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder) (err error) {
	defer guard.Trap(&err)
	setPhase(g, rec, "plan:yannakakis")
	ev, err := semijoin.YannakakisGuarded(db, g, rec)
	if err != nil {
		if errors.Is(err, semijoin.ErrNotAcyclic) {
			return exitcode.Input(err)
		}
		return err
	}
	red := ev.Reduction
	semiTuples := 0
	for _, s := range red.Sizes {
		semiTuples += s
	}
	fmt.Fprintln(w, "acyclic fast path (full semijoin reduction + join-tree join):")
	fmt.Fprintf(w, "  semijoin program: %d semijoins over %d join tree(s), %d tuples materialized\n",
		red.Semijoins, len(red.Trees), semiTuples)
	fmt.Fprintf(w, "  join phase: τ=%d, max intermediate %d, output %d\n",
		ev.Tau(), ev.MaxIntermediate(), ev.Result.Size())
	fmt.Fprintf(w, "  strategy: %s\n", ev.Strategy.Render(db))
	return nil
}

// reduceReport runs the Yannakakis evaluation once and prints
// per-relation sizes before and after its full reduction, then the join
// it computed. It reduces component-wise, so unconnected-but-acyclic
// schemes reduce instead of erroring; a cyclic scheme is rejected as a
// user-input error. It runs governed — a -max-tuples budget trips
// mid-reduction with the typed error.
func reduceReport(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder) (err error) {
	defer guard.Trap(&err)
	setPhase(g, rec, "reduce")
	ev, err := semijoin.YannakakisGuarded(db, g, rec)
	if err != nil {
		if errors.Is(err, semijoin.ErrNotAcyclic) {
			return exitcode.Input(err)
		}
		return err
	}
	reduced := ev.Reduction.Database
	fmt.Fprintln(w, "relation sizes before → after full reduction:")
	for i := 0; i < db.Len(); i++ {
		name := db.Relation(i).Name()
		if name == "" {
			name = fmt.Sprintf("#%d", i)
		}
		fmt.Fprintf(w, "  %-10s %4d → %4d\n", name, db.Relation(i).Size(), reduced.Relation(i).Size())
	}
	fmt.Fprintf(w, "pairwise consistent after reduction: %v\n", semijoin.PairwiseConsistent(reduced))
	fmt.Fprintf(w, "Yannakakis evaluation: output τ=%d, intermediate sizes %v\n", ev.Result.Size(), ev.JoinSizes)
	return nil
}

// listOptima prints every τ-optimum strategy per subspace. Under a
// tripped budget each subspace degrades along the ladder
// exhaustive enumeration → subset DP → greedy heuristic, reporting at
// each rung what was truncated and why; the run only errors when no
// rung can produce a result (e.g. a hard deadline already passed).
func listOptima(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder) error {
	if db.Len() > 8 {
		return fmt.Errorf("-optima is limited to 8 relations")
	}
	ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
	for _, sp := range []optimizer.Space{
		optimizer.SpaceAll, optimizer.SpaceNoCP,
		optimizer.SpaceLinear, optimizer.SpaceLinearNoCP,
	} {
		setPhase(g, rec, "optima:"+sp.String())
		opts, err := optimizer.Optima(ev, sp)
		if err == optimizer.ErrEmptySpace {
			fmt.Fprintf(w, "%s: empty subspace\n", sp)
			continue
		}
		if guard.Tripped(err) {
			if ferr := optimaFallback(w, ev, sp, err); ferr != nil {
				return ferr
			}
			continue
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d τ-optimum strategies at τ=%d\n", sp, len(opts), opts[0].Cost(ev))
		for _, o := range opts {
			fmt.Fprintf(w, "  %s\n", o.Render(db))
		}
	}
	return nil
}

// optimaFallback is the degradation ladder below exhaustive optima
// enumeration: the memoization-backed DP, then the greedy heuristic. It
// returns an error only when every rung trips, in which case the
// original typed enumeration error is surfaced.
func optimaFallback(w io.Writer, ev *database.Evaluator, sp optimizer.Space, cause error) error {
	db := ev.Database()
	rec := ev.Recorder()
	rec.Counter(obs.MetricGuardTrips).Inc()
	fmt.Fprintf(w, "%s: ⚠ exhaustive enumeration truncated: %v\n", sp, cause)
	rec.Counter(obs.MetricDegradeDP).Inc()
	res, err := optimizer.Optimize(ev, sp)
	if err == optimizer.ErrEmptySpace {
		fmt.Fprintf(w, "  (empty subspace)\n")
		return nil
	}
	if err == nil {
		fmt.Fprintf(w, "  falling back to the DP optimum: τ=%d  %s\n", res.Cost, res.Strategy.Render(db))
		return nil
	}
	fmt.Fprintf(w, "  DP fallback also cut: %v\n", err)
	rec.Counter(obs.MetricDegradeGreedy).Inc()
	greedy, err := optimizer.Greedy(ev)
	if err == nil {
		fmt.Fprintf(w, "  falling back to greedy (full space, no optimality guarantee): τ=%d  %s\n",
			greedy.Cost, greedy.Strategy.Render(db))
		return nil
	}
	fmt.Fprintf(w, "  greedy fallback also cut: %v\n", err)
	return cause
}

func analyze(w io.Writer, db *database.Database, g *guard.Guard, rec *obs.Recorder, listStrategies bool) error {
	fmt.Fprintln(w, "database:")
	fmt.Fprintln(w, db)
	fmt.Fprintln(w)

	an, err := core.AnalyzeEvaluator(database.NewEvaluator(db).WithGuard(g).WithRecorder(rec))
	if err != nil {
		return err
	}

	core.WriteReport(w, db, an)

	if err := core.VerifyCertificates(an); err != nil {
		return fmt.Errorf("certificate verification failed (this would falsify the paper): %w", err)
	}
	if len(an.Certificates) > 0 && an.Complete() {
		fmt.Fprintln(w, "certificates verified against measured optima ✓")
	}

	if listStrategies {
		fmt.Fprintln(w)
		if db.Len() > 8 {
			return fmt.Errorf("-strategies is limited to 8 relations ((2n−3)!! blows up)")
		}
		setPhase(g, rec, "enumerate:all")
		ev := database.NewEvaluator(db).WithGuard(g).WithRecorder(rec)
		type entry struct {
			cost int
			desc string
		}
		var entries []entry
		enumErr := func() (err error) {
			defer guard.Trap(&err)
			strategy.EnumerateAll(db.All(), func(s *strategy.Node) bool {
				tags := ""
				if s.IsLinear() {
					tags += " linear"
				}
				if s.UsesCartesian(db.Graph()) {
					tags += " uses-CP"
				}
				entries = append(entries, entry{s.Cost(ev), fmt.Sprintf("τ=%-8d %s%s", s.Cost(ev), s.Render(db), tags)})
				return true
			})
			return nil
		}()
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].cost < entries[j].cost })
		if enumErr == nil {
			fmt.Fprintf(w, "all %d strategies, cheapest first:\n", len(entries))
		} else if guard.Tripped(enumErr) {
			fmt.Fprintf(w, "⚠ strategy enumeration truncated after %d strategies: %v\n", len(entries), enumErr)
			if res, ok := an.Result(optimizer.SpaceAll); ok {
				fmt.Fprintf(w, "falling back to the DP optimum: τ=%d  %s\n", res.Cost, res.Strategy.Render(db))
			}
			fmt.Fprintf(w, "first %d enumerated strategies, cheapest first:\n", len(entries))
		} else {
			return enumErr
		}
		for _, e := range entries {
			fmt.Fprintln(w, " ", e.desc)
		}
	}
	return truncationError(an)
}
