package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"multijoin/internal/conditions"
	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/estimate"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/semijoin"
	"multijoin/internal/strategy"
)

// Layer replays. A traced run times each layer's public entry point on
// the inputs its ops used, after the measured window, so the timed ops
// stay exactly as in an untraced run. Where a workload's path never
// enters a layer, the replay still drives it on the same inputs, so every
// layer metric is measured on every workload: the exact analysis of a
// serve-wide database runs on a sample of its answer (the whole database
// is intractable), and analyze's inputs are also sent to a server.

// layerTimes is one input's replayed layer costs.
type layerTimes struct {
	decode, fingerprint, catalog, modelDP time.Duration
	acyclic                               bool
	yannakakis                            time.Duration
	joins                                 joinTimes
	// The exact-analysis layers, replayed in the analyzer's order on one
	// evaluator: materialize R_D, check the conditions, then each
	// subspace's DP (optimizer.DPSpaces order).
	analysis              bool
	materialize, checkAll time.Duration
	dp                    [4]time.Duration
	verify, encode        time.Duration
	// fanout is the parallel four-space fan-out's wall
	// (analyze.parallel.wall) on the same input.
	fanout time.Duration
	// request is the root span of the same request replayed through the
	// handler, and response the time to encode its answer as the handler
	// does.
	request, response time.Duration
}

// joinTimes is a plan replayed as step-by-step relation.Join calls.
type joinTimes struct {
	wall               time.Duration
	rowsIn, rowsOut    int
	joins, partitioned int
}

// replayPlanning times the statistics, planning and acyclic layers on db.
func (lt *layerTimes) replayPlanning(db *database.Database, histogram bool) error {
	start := time.Now()
	core.FingerprintDB(db)
	lt.fingerprint = time.Since(start)

	start = time.Now()
	var size optimizer.SizeModel
	if histogram {
		size = estimate.NewHistogramCatalog(db).Size
	} else {
		size = estimate.NewCatalog(db).Size
	}
	lt.catalog = time.Since(start)

	start = time.Now()
	if _, err := optimizer.OptimizeModel(db, size, optimizer.SpaceAll); err != nil {
		return fmt.Errorf("replaying the model DP: %w", err)
	}
	lt.modelDP = time.Since(start)

	if db.Graph().AcyclicComponents() {
		lt.acyclic = true
		start = time.Now()
		if _, err := semijoin.YannakakisGuarded(db, nil, nil); err != nil {
			return fmt.Errorf("replaying Yannakakis: %w", err)
		}
		lt.yannakakis = time.Since(start)
	}
	return nil
}

// replayJoins executes plan bottom-up with relation.Join, timing each
// step, and checks the final join has the expected size.
func (lt *layerTimes) replayJoins(db *database.Database, plan *strategy.Node, size int) error {
	if got := lt.joins.run(db, plan).Size(); got != size {
		return fmt.Errorf("replayed plan %s yields %d tuples, want |R_D| = %d", core.EncodePlanExpr(plan), got, size)
	}
	return nil
}

func (jt *joinTimes) run(db *database.Database, n *strategy.Node) *relation.Relation {
	if n.IsLeaf() {
		return db.Relation(n.Index())
	}
	l, r := jt.run(db, n.Left()), jt.run(db, n.Right())
	start := time.Now()
	out := relation.Join(l, r)
	jt.wall += time.Since(start)
	jt.rowsIn += l.Size() + r.Size()
	jt.rowsOut += out.Size()
	jt.joins++
	if out.JoinPartitions() > 0 {
		jt.partitioned++
	}
	return out
}

// replayAnalysis times the exact analysis's layers on a fresh evaluator.
// an is the analysis to verify and encode; nil computes it (untimed) on
// the warm evaluator. With fanout set, the parallel fan-out is also run
// once, on a fresh observed evaluator, to read its wall.
func (lt *layerTimes) replayAnalysis(db *database.Database, an *core.Analysis, fanout bool) error {
	ev := database.NewEvaluator(db)
	start := time.Now()
	ev.ResultNonEmpty()
	lt.materialize = time.Since(start)

	start = time.Now()
	conditions.CheckAll(ev)
	lt.checkAll = time.Since(start)

	for i, sp := range optimizer.DPSpaces() {
		start = time.Now()
		_, err := optimizer.Optimize(ev, sp)
		lt.dp[i] = time.Since(start)
		if err != nil && !errors.Is(err, optimizer.ErrEmptySpace) {
			return fmt.Errorf("replaying the %s DP: %w", sp, err)
		}
	}

	if an == nil {
		var err error
		if an, err = core.AnalyzeEvaluatorSequential(ev); err != nil {
			return fmt.Errorf("analyzing for the certificate replay: %w", err)
		}
	}
	start = time.Now()
	if err := core.VerifyCertificates(an); err != nil {
		return fmt.Errorf("replaying certificate verification: %w", err)
	}
	lt.verify = time.Since(start)

	start = time.Now()
	if err := core.EncodeAnalysisJSON(io.Discard, db, an); err != nil {
		return fmt.Errorf("replaying the analysis encoder: %w", err)
	}
	lt.encode = time.Since(start)

	if fanout {
		rec := obs.NewRecorder()
		if _, err := core.AnalyzeEvaluator(database.NewEvaluator(db).WithRecorder(rec)); err != nil {
			return fmt.Errorf("replaying the parallel analysis: %w", err)
		}
		lt.fanout = time.Duration(rec.Snapshot().Timers[obs.MetricAnalyzeParallelWall].TotalNS)
	}
	lt.analysis = true
	return nil
}

// analyzeParts is the replayed sequential analysis from parsed database
// to encoded report, without the file read: what a -parallel-spaces=false
// CLI run spends after loading.
func (lt *layerTimes) analyzeParts() time.Duration {
	d := lt.decode + lt.materialize + lt.checkAll + lt.yannakakis + lt.verify + lt.encode
	for _, x := range lt.dp {
		d += x
	}
	return d
}

// addReplayMetrics averages the replayed layer costs per input into m.
func addReplayMetrics(m map[string]float64, lts []layerTimes) {
	var n, acyclic, analyzed float64
	var decode, fp, catalog, model, yann, check, verify, encode, fanout time.Duration
	var dp [4]time.Duration
	var joins joinTimes
	for _, lt := range lts {
		n++
		decode += lt.decode
		fp += lt.fingerprint
		catalog += lt.catalog
		model += lt.modelDP
		if lt.acyclic {
			acyclic++
			yann += lt.yannakakis
		}
		joins.wall += lt.joins.wall
		joins.rowsIn += lt.joins.rowsIn
		joins.rowsOut += lt.joins.rowsOut
		joins.joins += lt.joins.joins
		joins.partitioned += lt.joins.partitioned
		if lt.analysis {
			analyzed++
			check += lt.checkAll
			for i := range dp {
				dp[i] += lt.dp[i]
			}
			verify += lt.verify
			encode += lt.encode
			fanout += lt.fanout
		}
	}
	m["database.decode_ms"] = meanMS(decode, n)
	m["core.fingerprint_ms"] = meanMS(fp, n)
	m["estimate.catalog_ms"] = meanMS(catalog, n)
	m["optimizer.model_dp_ms"] = meanMS(model, n)
	m["semijoin.yannakakis_ms"] = meanMS(yann, acyclic)
	m["relation.join_ms"] = meanMS(joins.wall, n)
	m["relation.join_rows_in_per_op"] = ratio(float64(joins.rowsIn), n)
	m["relation.join_rows_out_per_op"] = ratio(float64(joins.rowsOut), n)
	m["relation.ns_per_row"] = ratio(float64(joins.wall.Nanoseconds()), float64(joins.rowsIn+joins.rowsOut))
	m["relation.partitioned_share"] = ratio(float64(joins.partitioned), float64(joins.joins))
	m["conditions.checkall_ms"] = meanMS(check, analyzed)
	var seq time.Duration
	for i, sp := range optimizer.DPSpaces() {
		m["optimizer.dp."+sp.String()+"_ms"] = meanMS(dp[i], analyzed)
		seq += dp[i]
	}
	m["optimizer.dp_ms"] = meanMS(seq, analyzed)
	m["optimizer.fanout_saving_ms"] = meanMS(seq-fanout, analyzed)
	m["core.verify_certificates_ms"] = meanMS(verify, analyzed)
	m["core.encode_analysis_ms"] = meanMS(encode, analyzed)
}

// addCounterMetrics derives the per-op engine counters from totals
// accumulated over ops operations.
func addCounterMetrics(m map[string]float64, delta func(string) int64, ops int) {
	n := float64(ops)
	m["database.eval.tuples_per_op"] = ratio(float64(delta(obs.MetricEvalTuples)), n)
	m["database.eval.states_per_op"] = ratio(float64(delta(obs.MetricEvalStates)), n)
	hits, misses := delta(obs.MetricEvalMemoHits), delta(obs.MetricEvalMemoMisses)
	m["database.eval.memo_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["optimizer.dp.states_per_op"] = ratio(float64(delta(obs.MetricDPStates)), n)
	m["semijoin.semijoins_per_op"] = ratio(float64(delta(obs.MetricYannakakisSemijoins)), n)
	m["semijoin.tuples_per_op"] = ratio(float64(delta(obs.MetricYannakakisTuples)), n)
}

// reconcile fails when parts and whole differ by more than tol of whole.
func reconcile(what string, parts, whole time.Duration, tol float64) error {
	if whole <= 0 {
		return fmt.Errorf("%s: nothing to reconcile", what)
	}
	gap := float64(parts-whole) / float64(whole)
	if gap > tol || gap < -tol {
		return fmt.Errorf("%s: parts sum to %.3f ms but the whole took %.3f ms (gap %+.1f%%, tolerance ±%.0f%%)",
			what, ms(parts), ms(whole), 100*gap, 100*tol)
	}
	return nil
}

// reconcileTolerance is how far the replayed parts of a request or an
// analysis may stray from its measured wall.
const reconcileTolerance = 0.15

func meanMS(total time.Duration, n float64) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianLayers takes each layer time's median across replays.
func medianLayers(samples []layerTimes) layerTimes {
	out := samples[0]
	pick := func(get func(*layerTimes) *time.Duration) {
		ds := make([]time.Duration, len(samples))
		for i := range samples {
			ds[i] = *get(&samples[i])
		}
		*get(&out) = median(ds)
	}
	pick(func(l *layerTimes) *time.Duration { return &l.decode })
	pick(func(l *layerTimes) *time.Duration { return &l.fingerprint })
	pick(func(l *layerTimes) *time.Duration { return &l.catalog })
	pick(func(l *layerTimes) *time.Duration { return &l.modelDP })
	pick(func(l *layerTimes) *time.Duration { return &l.yannakakis })
	pick(func(l *layerTimes) *time.Duration { return &l.joins.wall })
	pick(func(l *layerTimes) *time.Duration { return &l.materialize })
	pick(func(l *layerTimes) *time.Duration { return &l.checkAll })
	for i := range out.dp {
		pick(func(l *layerTimes) *time.Duration { return &l.dp[i] })
	}
	pick(func(l *layerTimes) *time.Duration { return &l.verify })
	pick(func(l *layerTimes) *time.Duration { return &l.encode })
	pick(func(l *layerTimes) *time.Duration { return &l.fanout })
	pick(func(l *layerTimes) *time.Duration { return &l.request })
	pick(func(l *layerTimes) *time.Duration { return &l.response })
	return out
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
