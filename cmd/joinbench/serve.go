package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"time"

	"multijoin/internal/core"
	"multijoin/internal/database"
	"multijoin/internal/gen"
	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/optimizer"
	"multijoin/internal/relation"
	"multijoin/internal/serve"
)

// The serve workloads drive an in-process joinserve handler configured
// like cmd/joinserve (recorder on, default plan cache, the default tenant
// classes) plus one bench class, wide-yannakakis, for serve-wide.

// wideTenant is the bench class serve-wide's requests run under: the
// ladder starts at the yannakakis rung, and the budgets leave room for
// executing plans over 5000-row relations.
var wideTenant = serve.TenantClass{
	Name:          "wide-yannakakis",
	Deadline:      10 * time.Second,
	MaxTuples:     20_000_000,
	MaxStates:     20_000_000,
	MaxConcurrent: 4,
	MaxQueue:      64,
	StartRung:     serve.RungYannakakis,
}

// serveCase is one request of a pool, cycled round-robin, with the
// answer it must produce.
type serveCase struct {
	body []byte
	mode string
	// size is |R_D|; every executed answer must report it as resultSize.
	size int
	// tau is the full-space τ optimum an answer from the dp or exhaustive
	// rung must report as plan.cost; -1 where no exact optimum is known
	// (serve-wide).
	tau int64
	// analyzable marks a database whose exact analysis a traced run can
	// afford to replay: its full-space DP materializes no more tuples than
	// the standard class's budget allows.
	analyzable bool
}

// serveTarget is a serve workload: the server and its request pool.
type serveTarget struct {
	name    string
	rec     *obs.Recorder
	srv     *serve.Server
	handler http.Handler
	cases   []serveCase
	// primeAll sends every case once before the warm-up, so the plan
	// cache holds every database when measuring starts.
	primeAll bool
	// replayCases bounds how many distinct cases a traced run replays.
	replayCases int
	// sample, when positive, replays the exact analysis on a sample of
	// that many answer tuples instead of the whole database, whose exact
	// analysis is intractable.
	sample int
}

func newServeTarget(name string) (*serveTarget, error) {
	rec := obs.NewRecorder()
	srv, err := serve.New(serve.Config{
		Tenants:  append(serve.DefaultTenants(), wideTenant),
		Recorder: rec,
	})
	if err != nil {
		return nil, err
	}
	return &serveTarget{name: name, rec: rec, srv: srv, handler: srv.Handler()}, nil
}

// tenantLimits returns a default tenant class's per-rung budgets.
func tenantLimits(name string) guard.Limits {
	for _, c := range serve.DefaultTenants() {
		if c.Name == name {
			return c.Limits()
		}
	}
	return guard.Limits{}
}

// Pool sizes and the draws allowed to find a database no earlier case of
// the pool has.
const (
	coldPool    = 512
	hotPool     = 32
	widePool    = 8
	maxAttempts = 50
	// wideSample is how many answer tuples of a serve-wide database its
	// exact-analysis replay keeps: few enough that the Cartesian products
	// of a star's four leaves stay near 12^4 tuples.
	wideSample = 12
)

var coldShapes = []string{"chain", "star", "cycle", "clique", "random"}

// coldParams fixes case i's shape, size and tenant independently of the
// seed, so seeds vary only the data: 5-8 relations of 10-40 rows, ¾ of
// the cases for the standard class (ladder starts at dp) and ¼ for
// premium (starts at exhaustive, at most 7 relations).
func coldParams(i int) (shape string, n, rows int, tenant string) {
	shape, n, tenant = coldShapes[i%len(coldShapes)], 5+(i/5)%4, "standard"
	if i%4 == 3 {
		tenant, n = "premium", 5+(i/5)%3
	}
	return shape, n, 10 + (i*37)%31, tenant
}

// buildCold draws serve-cold's 512 distinct small databases. Some trip
// the dp rung's 200k-tuple budget and degrade: acyclic ones to the
// yannakakis rung, cyclic ones to greedy, and now and then, when greedy
// trips too, to the estimate rung, which plans without executing.
func buildCold(seed int64) (*serveTarget, error) {
	t, err := newServeTarget("serve-cold")
	if err != nil {
		return nil, err
	}
	t.replayCases = 32
	rng := rand.New(rand.NewSource(seed))
	seen := map[core.Fingerprint]bool{}
	for i := 0; i < coldPool; i++ {
		shape, n, rows, tenant := coldParams(i)
		db, err := drawDistinct(seen, func() *database.Database {
			return gen.Uniform(rng, schemes(shape, n, int64(i)), rows, rows)
		})
		if err != nil {
			return nil, fmt.Errorf("serve-cold case %d (%s, n=%d, rows=%d): %w", i, shape, n, rows, err)
		}
		if err := t.addExact(db, tenant, referenceSize(db)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// buildHot draws serve-hot's 32 databases: stars and cliques of 4-6
// relations with 100-400 rows. Every pair of their relations is linked,
// so the full-space DP materializes no Cartesian product and fits the
// standard budget; its answer fills the plan cache.
func buildHot(seed int64) (*serveTarget, error) {
	t, err := newServeTarget("serve-hot")
	if err != nil {
		return nil, err
	}
	t.primeAll, t.replayCases = true, hotPool
	rng := rand.New(rand.NewSource(seed))
	seen := map[core.Fingerprint]bool{}
	for i := 0; i < hotPool; i++ {
		shape, tenant := "star", "standard"
		if i%2 == 1 {
			shape = "clique"
		}
		if i%4 == 3 {
			tenant = "premium"
		}
		n, rows := 4+(i/2)%3, 100+(i*97)%301
		db, err := drawDistinct(seen, func() *database.Database {
			return gen.Uniform(rng, schemes(shape, n, int64(i)), rows, rows)
		})
		if err != nil {
			return nil, fmt.Errorf("serve-hot case %d (%s, n=%d, rows=%d): %w", i, shape, n, rows, err)
		}
		if err := t.addExact(db, tenant, kernelSize(db)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// drawDistinct calls draw until it returns a database no earlier case of
// the pool has, so every case is a different plan-cache key.
func drawDistinct(seen map[core.Fingerprint]bool, draw func() *database.Database) (*database.Database, error) {
	for attempt := 0; attempt < maxAttempts; attempt++ {
		db := draw()
		if fp := core.FingerprintDB(db); !seen[fp] {
			seen[fp] = true
			return db, nil
		}
	}
	return nil, fmt.Errorf("%d draws repeated earlier cases", maxAttempts)
}

// wideModes rotate per request over each database's three cases.
var wideModes = []string{"estimate", "histogram", "exact"}

// buildWide draws serve-wide's 8 acyclic databases of 5 relations × 5000
// rows: chains, stars and random acyclic schemes, with uniform data or
// with one Zipf-skewed leaf relation. Every request bypasses the cache.
func buildWide(seed int64) (*serveTarget, error) {
	t, err := newServeTarget("serve-wide")
	if err != nil {
		return nil, err
	}
	t.replayCases, t.sample = 12, wideSample
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < widePool; i++ {
		shape := []string{"chain", "star", "acyclic"}[i%3]
		sch := schemes(shape, 5, int64(i))
		if shape == "acyclic" {
			// gen attaches each relation to an earlier one; listing children
			// before parents keeps every connected subset connected once its
			// lowest-indexed relation is split off, which is how the
			// evaluator materializes an executed plan's steps. In parent-first
			// order those splits are Cartesian products of 5000-row relations.
			slices.Reverse(sch)
		}
		db := gen.Uniform(rng, sch, 5000, 5000)
		if i%2 == 1 {
			db = withZipfLeaf(rng, db)
		}
		if err := t.add(db, wideTenant.Name, true, wideModes, serveCase{size: kernelSize(db), tau: -1}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addExact appends an exact-mode case for db: its answer must report
// resultSize = size and, from the dp and exhaustive rungs, the τ optimum.
func (t *serveTarget) addExact(db *database.Database, tenant string, size int) error {
	tau, materialized, err := fullSpaceOptimum(db)
	if err != nil {
		return err
	}
	want := serveCase{size: size, tau: tau, analyzable: materialized <= tenantLimits("standard").MaxTuples}
	return t.add(db, tenant, false, []string{""}, want)
}

// add appends a database and one request case per plan mode ("" plans
// exactly), each executing the plan and expecting the answer in want.
func (t *serveTarget) add(db *database.Database, tenant string, noCache bool, modes []string, want serveCase) error {
	for _, mode := range modes {
		body, err := serve.BuildRequestBodyMode(db, tenant, true, noCache, mode)
		if err != nil {
			return err
		}
		c := want
		c.body, c.mode = body, mode
		t.cases = append(t.cases, c)
	}
	return nil
}

// schemes returns n relation schemes of the named shape. The random
// shapes come from their own source seeded by id, so a case keeps its
// scheme whatever the run's seed, which varies only the data.
func schemes(shape string, n int, id int64) []relation.Schema {
	rng := rand.New(rand.NewSource(id))
	switch shape {
	case "chain":
		return gen.Schemes(gen.Chain, n)
	case "star":
		return gen.Schemes(gen.Star, n)
	case "cycle":
		return gen.Schemes(gen.Cycle, n)
	case "clique":
		return gen.Schemes(gen.Clique, n)
	case "acyclic":
		return gen.RandomAcyclicSchemes(rng, n)
	}
	return gen.RandomConnectedSchemes(rng, n, 0.3)
}

// withZipfLeaf replaces one leaf relation — linked to a single other
// relation, or the first relation when none is — with Zipf-skewed data
// over the same scheme. Skewing one side of each join keeps the heavy
// values from multiplying through the chain.
func withZipfLeaf(rng *rand.Rand, db *database.Database) *database.Database {
	g := db.Graph()
	leaf := 0
	for i := 0; i < db.Len(); i++ {
		links := 0
		for j := 0; j < db.Len(); j++ {
			if i != j && g.Linked(hypergraph.Singleton(i), hypergraph.Singleton(j)) {
				links++
			}
		}
		if links == 1 {
			leaf = i
			break
		}
	}
	old := db.Relation(leaf)
	skewed := gen.Zipf(rng, []relation.Schema{old.Schema()}, old.Size(), 5000, 1.2).Relation(0)
	rels := append([]*relation.Relation(nil), db.Relations()...)
	rels[leaf] = skewed.WithName(old.Name())
	return database.New(rels...)
}

// fullSpaceOptimum is the oracle the dp and exhaustive rungs' answers
// are checked against: the full-space τ optimum, found by the model DP
// (optimizer.OptimizeModel) over exact sizes. A subset's size is the
// product of its connected components' join sizes, so only connected
// subsets are joined, with relation.Join, while the server's evaluator
// materializes the Cartesian products too. materialized is Σ|R_S| over the
// subsets of two or more relations: the tuples a full-space DP through the
// evaluator materializes.
func fullSpaceOptimum(db *database.Database) (tau, materialized int64, err error) {
	g := db.Graph()
	joined := map[hypergraph.Set]*relation.Relation{}
	var join func(s hypergraph.Set) *relation.Relation
	join = func(s hypergraph.Set) *relation.Relation {
		if r, ok := joined[s]; ok {
			return r
		}
		r := db.Relation(s.First())
		if s.Len() > 1 {
			// A connected set has a member whose removal leaves it
			// connected: a leaf of any spanning tree.
			for _, i := range s.Indexes() {
				if rest := s.Remove(i); g.Connected(rest) {
					r = relation.Join(join(rest), db.Relation(i))
					break
				}
			}
		}
		joined[s] = r
		return r
	}
	size := func(s hypergraph.Set) float64 {
		p := 1.0
		for _, c := range g.Components(s) {
			p *= float64(join(c).Size())
		}
		return p
	}
	res, err := optimizer.OptimizeModel(db, size, optimizer.SpaceAll)
	if err != nil {
		return 0, 0, err
	}
	db.All().Subsets(func(s hypergraph.Set) bool {
		if s.Len() > 1 {
			materialized += int64(size(s))
		}
		return true
	})
	return int64(res.Est), materialized, nil
}

// joinOrder lists the relations so each one after the first links to an
// earlier one where the scheme allows, keeping folded joins off
// Cartesian products.
func joinOrder(db *database.Database) []int {
	g := db.Graph()
	order := []int{0}
	in := hypergraph.Singleton(0)
	for len(order) < db.Len() {
		next := -1
		for i := 0; i < db.Len() && next < 0; i++ {
			if !in.Has(i) && g.Linked(in, hypergraph.Singleton(i)) {
				next = i
			}
		}
		for i := 0; i < db.Len() && next < 0; i++ {
			if !in.Has(i) {
				next = i
			}
		}
		order = append(order, next)
		in = in.Add(next)
	}
	return order
}

// referenceSize is |R_D| from the nested-loop oracle.
func referenceSize(db *database.Database) int {
	return foldSize(db, relation.ReferenceJoin)
}

// kernelSize is |R_D| from the hash-join kernel, for pools too large for
// the oracle.
func kernelSize(db *database.Database) int {
	return foldSize(db, relation.Join)
}

func foldSize(db *database.Database, join func(r, s *relation.Relation) *relation.Relation) int {
	return fold(db, join).Size()
}

// fold joins db's relations in joinOrder.
func fold(db *database.Database, join func(r, s *relation.Relation) *relation.Relation) *relation.Relation {
	order := joinOrder(db)
	acc := db.Relation(order[0])
	for _, i := range order[1:] {
		acc = join(acc, db.Relation(i))
	}
	return acc
}

// answerSample is a small database consistent with db: the first k tuples
// of R_D projected back onto each relation's scheme, so their join is not
// empty.
func answerSample(db *database.Database, k int) *database.Database {
	full := fold(db, relation.Join)
	rows := full.Rows()
	if len(rows) > k {
		rows = rows[:k]
	}
	first := relation.FromRows("sample", full.Schema(), rows...)
	rels := make([]*relation.Relation, db.Len())
	for i, r := range db.Relations() {
		rels[i] = relation.Project(first, r.Schema()).WithName(r.Name())
	}
	return database.New(rels...)
}

// prime sends every case once when the workload measures a warm cache.
func (t *serveTarget) prime() error {
	if !t.primeAll {
		return nil
	}
	for i := range t.cases {
		o := &op{index: i}
		t.do(o)
		if err := t.check(o); err != nil {
			return fmt.Errorf("priming case %d: %w", i, err)
		}
	}
	if n := t.srv.CacheLen(); n < len(t.cases) {
		return fmt.Errorf("priming left %d of %d cases in the plan cache", n, len(t.cases))
	}
	return nil
}

func (t *serveTarget) do(o *op) {
	c := &t.cases[o.index%len(t.cases)]
	start := time.Now()
	res, err := serve.HandlerDoer{Handler: t.handler}.Do(context.Background(), http.MethodPost, "/v1/query", c.body)
	o.wall = time.Since(start)
	if err != nil {
		o.err = err
		return
	}
	o.status, o.body = res.Status, res.Body
}

func (t *serveTarget) collect(*op) {}

func (t *serveTarget) rotation() int { return len(t.cases) }

// check verifies one answer: status 200, resultSize = |R_D|, and on the
// dp and exhaustive rungs plan.cost = the τ optimum. Only a verified
// answer is kept in o.resp.
func (t *serveTarget) check(o *op) error {
	if o.err != nil {
		return o.err
	}
	c := &t.cases[o.index%len(t.cases)]
	if o.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	var resp serve.Response
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("decoding the answer: %w", err)
	}
	switch {
	case resp.ResultSize == nil:
		// Exact planning reaches the estimate rung only when every
		// executing rung has tripped, and that rung never executes.
		if resp.Rung != serve.RungEstimate.String() || !resp.Degraded {
			return fmt.Errorf("rung %s answered without a resultSize", resp.Rung)
		}
	case *resp.ResultSize != c.size:
		return fmt.Errorf("rung %s: resultSize %d, want |R_D| = %d", resp.Rung, *resp.ResultSize, c.size)
	}
	if (resp.Rung == serve.RungDP.String() || resp.Rung == serve.RungExhaustive.String()) && resp.Plan.Cost != c.tau {
		return fmt.Errorf("rung %s: plan.cost %d, want the τ optimum %d", resp.Rung, resp.Plan.Cost, c.tau)
	}
	o.resp = &resp
	return nil
}

// sanity keeps the plan cache doing the job each workload claims:
// serve-hot is all hits, serve-cold never hits.
func (t *serveTarget) sanity(measured []*op) error {
	hits := cacheHitRatio(measured)
	switch {
	case t.name == "serve-hot" && hits < 0.99:
		return fmt.Errorf("serve-hot: plan-cache hit ratio %.4f, want ≥ 0.99", hits)
	case t.name == "serve-cold" && hits != 0:
		return fmt.Errorf("serve-cold: plan-cache hit ratio %.4f, want 0", hits)
	}
	return nil
}

func cacheHitRatio(ops []*op) float64 {
	var ok, hits float64
	for _, o := range ops {
		if o.resp != nil {
			ok++
			if o.resp.CacheHit {
				hits++
			}
		}
	}
	return ratio(hits, ok)
}

func (t *serveTarget) counters() map[string]int64 { return t.rec.Snapshot().Counters }

// layers derives the serve layer metrics: answer mix and span breakdown
// from the traced answers, engine counters from the server recorder, and
// every other layer from replays of the first replayCases distinct cases
// the traced ops sent.
func (t *serveTarget) layers(ops []*op, win *window, cfg config) (map[string]float64, error) {
	m := map[string]float64{}
	var measured, traced []*op
	for _, o := range ops {
		if o.measured {
			measured = append(measured, o)
			// Failed ops are already counted; only verified answers carry
			// spans to break down and replay.
			if o.traced && o.resp != nil {
				traced = append(traced, o)
			}
		}
	}
	addAnswerMetrics(m, measured)
	if err := addSpanMetrics(m, traced); err != nil {
		return nil, err
	}
	addCounterMetrics(m, win.counterDelta, len(measured))

	// Replay each distinct case replayReps times, on the answer of the
	// first traced op that sent it, and keep each layer's median.
	replayed := map[int]bool{}
	var lts []layerTimes
	for _, o := range traced {
		ci := o.index % len(t.cases)
		if replayed[ci] || len(replayed) == t.replayCases {
			continue
		}
		samples := make([]layerTimes, cfg.replayReps)
		for r := range samples {
			var err error
			if samples[r], err = t.replay(ci, o.resp); err != nil {
				return nil, fmt.Errorf("%s case %d: %w", t.name, ci, err)
			}
		}
		replayed[ci] = true
		lts = append(lts, medianLayers(samples))
	}
	addReplayMetrics(m, lts)
	if cfg.strict {
		if err := reconcileServe(t.name, traced, lts); err != nil {
			return nil, err
		}
	}

	share := m["relation.partitioned_share"]
	switch {
	case len(lts) == 0:
	case t.name == "serve-wide" && share <= 0:
		return nil, fmt.Errorf("serve-wide: no replayed join took the partitioned path")
	case t.name == "serve-cold" && share != 0:
		return nil, fmt.Errorf("serve-cold: %.3f of replayed joins took the partitioned path, want 0", share)
	}
	return m, nil
}

// reconcileServe checks a serve workload's layers add up. Over the traced
// answers, the request span plus the response encoding must make up the
// handler's wall: that is all the handler does outside the span. Over the
// replays, decode and fingerprint, which run inside the request span, must
// fit within the span of the request replayed beside them.
func reconcileServe(name string, traced []*op, lts []layerTimes) error {
	var encode, inner, root time.Duration
	for _, lt := range lts {
		encode += lt.response
		inner += lt.decode + lt.fingerprint
		root += lt.request
	}
	var wall, parts time.Duration
	for _, o := range traced {
		wall += o.wall
		parts += time.Duration(rootSpan(o.resp.Trace.Spans).DurNS) + encode/time.Duration(len(lts))
	}
	if err := reconcile(name+": request span + response encoding vs handler wall", parts, wall, reconcileTolerance); err != nil {
		return err
	}
	if float64(inner) > (1+reconcileTolerance)*float64(root) {
		return fmt.Errorf("%s: replayed decode + fingerprint take %.3f ms, more than the %.3f ms request spans holding them",
			name, ms(inner), ms(root))
	}
	return nil
}

// replay times every layer on case ci's inputs: the whole request through
// the handler, the decoder on its body, the planning and acyclic layers on
// the decoded database, the answer's plan as relation.Join steps, the
// exact analysis (on an answer sample where the database is too large),
// and the response encoder on the answer.
func (t *serveTarget) replay(ci int, resp *serve.Response) (layerTimes, error) {
	c := &t.cases[ci]
	var lt layerTimes
	o := &op{index: ci}
	t.do(o)
	if err := t.check(o); err != nil {
		return lt, fmt.Errorf("replayed request: %w", err)
	}
	lt.request = time.Duration(rootSpan(o.resp.Trace.Spans).DurNS)

	start := time.Now()
	_, db, err := serve.DecodeRequest(bytes.NewReader(c.body))
	lt.decode = time.Since(start)
	if err != nil {
		return lt, err
	}
	if err := lt.replayPlanning(db, c.mode == "histogram"); err != nil {
		return lt, err
	}
	plan, err := core.Plan{Expr: resp.Plan.Expr}.Strategy(db)
	if err != nil {
		return lt, err
	}
	if resp.ResultSize != nil {
		if err := lt.replayJoins(db, plan, c.size); err != nil {
			return lt, err
		}
	}
	switch {
	case t.sample > 0:
		err = lt.replayAnalysis(answerSample(db, t.sample), nil, true)
	case c.analyzable:
		err = lt.replayAnalysis(db, nil, true)
	}
	if err != nil {
		return lt, err
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	start = time.Now()
	err = enc.Encode(resp)
	lt.response = time.Since(start)
	return lt, err
}

// addAnswerMetrics reads the answer mix: cache hits, degradations and
// which rung answered, as shares of the OK answers.
func addAnswerMetrics(m map[string]float64, measured []*op) {
	var ok, degraded float64
	rungs := map[string]float64{}
	for _, o := range measured {
		if o.resp == nil {
			continue
		}
		ok++
		rungs[o.resp.Rung]++
		if o.resp.Degraded {
			degraded++
		}
	}
	m["serve.plancache.hit_ratio"] = cacheHitRatio(measured)
	m["serve.degraded_ratio"] = ratio(degraded, ok)
	for _, r := range []serve.Rung{serve.RungExhaustive, serve.RungDP, serve.RungYannakakis, serve.RungGreedy, serve.RungEstimate} {
		m["serve.rung."+r.String()+".share"] = ratio(rungs[r.String()], ok)
	}
}

// addSpanMetrics breaks the traced answers' span trees into layers and
// checks every span fits inside its parent.
func addSpanMetrics(m map[string]float64, traced []*op) error {
	var n, attempted, answered float64
	var admission, ladder, optimize, execute, encode, self time.Duration
	for _, o := range traced {
		if o.resp == nil || o.resp.Trace == nil {
			continue
		}
		spans := o.resp.Trace.Spans
		byID := map[int64]obs.SpanRecord{}
		for _, s := range spans {
			byID[s.ID] = s
		}
		root := rootSpan(spans)
		children := time.Duration(0)
		for _, s := range spans {
			if s.Parent != 0 {
				if p, ok := byID[s.Parent]; ok && s.DurNS > p.DurNS {
					return fmt.Errorf("span %q (%d ns) outlasts its parent %q (%d ns)", s.Name, s.DurNS, p.Name, p.DurNS)
				}
			}
			if s.Parent == root.ID && root.ID != 0 {
				children += time.Duration(s.DurNS)
			}
			d := time.Duration(s.DurNS)
			switch {
			case s.Name == obs.SpanAdmission:
				admission += d
			case s.Name == obs.SpanOptimize:
				optimize += d
			case s.Name == obs.SpanExecute:
				execute += d
			case strings.HasPrefix(s.Name, obs.SpanRung("")):
				ladder += d
				attempted++
				if s.Err == "" {
					answered++
				}
			}
		}
		n++
		encode += o.wall - time.Duration(root.DurNS)
		self += time.Duration(root.DurNS) - children
	}
	m["serve.admission_ms"] = meanMS(admission, n)
	m["serve.ladder_ms"] = meanMS(ladder, n)
	m["serve.ladder.useful_ratio"] = ratio(answered, attempted)
	m["serve.optimize_ms"] = meanMS(optimize, n)
	m["serve.execute_ms"] = meanMS(execute, n)
	m["serve.encode_ms"] = meanMS(encode, n)
	m["serve.request_self_ms"] = meanMS(self, n)
	return nil
}

// rootSpan returns the request's root span.
func rootSpan(spans []obs.SpanRecord) obs.SpanRecord {
	for _, s := range spans {
		if s.Parent == 0 && s.Name == obs.SpanRequest {
			return s
		}
	}
	return obs.SpanRecord{}
}
