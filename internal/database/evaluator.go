package database

import (
	"fmt"
	"math/bits"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// Evaluator sizes and materializes R_S = ⋈_{R ∈ S} R for subsets S of a
// database's scheme, memoizing one entry per subset. Because the natural
// join is commutative and associative, R_S is well defined independently
// of order (§2), so one entry serves every strategy, condition check and
// dynamic-programming state that mentions S.
//
// An entry holds τ(R_S), plus R_S itself when S is connected. A
// connected S is built by one join: it splits off the lowest-indexed
// relation whose removal leaves the rest connected and joins it onto the
// rest's memoized relation, so every join the evaluator runs is a
// genuine one. A disconnected S is never joined to learn its size: as in
// the paper's C1, τ(R_E ⋈ R_E2) = τ(R_E)·τ(R_E2) for unlinked E and E2,
// so τ(R_S) is the product of its components' sizes, stopping at the
// first empty factor. Its tuples, a Cartesian product, are built only
// when Eval or Result asks for them. An S known to be empty — one that
// holds an empty relation, or whose rest S∖{min S} has been found empty
// — is recorded without any join.
//
// The ledger is independent of which joins ran. S's suffix chain is S,
// then S less its lowest-indexed relation, and so on down to one
// relation. A request (Eval or Size) for S that misses charges every
// not-yet-charged set on the chain, smallest first: each set of two or
// more relations costs its size in tuples, one state and one step. A hit
// charges nothing. A connected relation built only to size a
// disconnected set (a helper build) is memoized uncharged, and is
// charged when some request's suffix chain reaches it. So budgets, trip
// points and the eval.* counters are those of an evaluator that
// materializes every requested subset by splitting off its lowest
// relation, Cartesian products included.
//
// Sizes are bounded by MaxSize: a product past it aborts the request
// with a *SizeError before it is charged.
//
// An Evaluator belongs to one goroutine: its memo is a plain map with no
// locking. Callers that want parallelism run independent requests, each
// on its own Evaluator, as joinserve does.
//
// An Evaluator may carry a guard.Guard (WithGuard), in which case every
// charge counts against the guard's tuple/state/step budgets, every
// request, memo hit or not, polls its context, and so does every helper
// build. A tripped guard unwinds via guard.Abort; the public entry points
// of the optimizer, core and cli packages trap the abort and surface it
// as a typed error.
type Evaluator struct {
	db    *Database
	empty hypergraph.Set // the relations with no tuples
	memo  map[hypergraph.Set]memoEntry
	guard *guard.Guard
	rec   *obs.Recorder

	// Metric handles resolved once at attach time so the hot path pays
	// an atomic add, not a registry lookup; all are the nil no-op
	// handles when no recorder is attached.
	cMemoHits   *obs.Counter
	cMemoMisses *obs.Counter
	cTuples     *obs.Counter
	cStates     *obs.Counter
	cSteps      *obs.Counter
	cJoinParts  *obs.Counter
	gIntern     *obs.Gauge
}

// MaxSize is the largest τ(R_S) the evaluator reports, 2^53. Sizes of
// Cartesian products are multiplied, not built, so they can outgrow
// anything a join could materialize; capping them at 2^53 keeps every
// size exact in the optimizers' float64 costs and keeps a single charge
// from wrapping the int64 tuple ledger, so a tuple budget still trips.
const MaxSize = 1 << 53

// SizeError reports a subset whose τ(R_S) exceeds MaxSize. Such a set
// could never be materialized, so the error matches
// guard.ErrBudgetExceeded, and callers degrade as on a budget trip.
type SizeError struct {
	Set   hypergraph.Set
	Phase string
}

// Error names the subset and, when the evaluator is governed, the phase.
func (e *SizeError) Error() string {
	msg := fmt.Sprintf("database: τ(R_S) for S = %v exceeds 2^53", e.Set)
	if e.Phase != "" {
		msg += fmt.Sprintf(" in phase %q", e.Phase)
	}
	return msg
}

// Is matches SizeErrors against the guard.ErrBudgetExceeded sentinel.
func (e *SizeError) Is(target error) bool { return target == guard.ErrBudgetExceeded }

// memoEntry is what the evaluator knows about one subset S. A missing
// entry reads as the zero value, which is not built.
type memoEntry struct {
	// rel is R_S: set whenever S is connected, and for a disconnected S
	// once Eval has built its product.
	rel  *relation.Relation
	size int
	// built reports that size (and rel, for a connected S) is known.
	built bool
	// charged reports that a request has charged S to the ledger; a
	// built entry that is not charged is a helper build.
	charged bool
}

// NewEvaluator creates an evaluator for the database.
func NewEvaluator(db *Database) *Evaluator {
	e := &Evaluator{db: db, memo: make(map[hypergraph.Set]memoEntry)}
	for i, r := range db.Relations() {
		if r.Empty() {
			e.empty = e.empty.Add(i)
		}
	}
	return e
}

// WithGuard attaches a resource guard to the evaluator and returns it.
// A nil guard detaches governance.
func (e *Evaluator) WithGuard(g *guard.Guard) *Evaluator {
	e.guard = g
	return e
}

// Guard returns the evaluator's resource guard (nil when ungoverned).
func (e *Evaluator) Guard() *guard.Guard { return e.guard }

// WithRecorder attaches an observability recorder and returns the
// evaluator. Every charge then counts into `eval.tuples` (the running τ
// ledger), `eval.states` and `eval.steps` — the same quantities, charged
// at the same points, as guard.Guard's budgets, so the metrics reconcile
// exactly with guard.Snapshot() — and requests count into
// `eval.memo.hits`/`eval.memo.misses`. The dictionary-encoded kernel
// reports through two further handles:
// `join.partitions` accumulates, as each set is charged, the
// hash-partition count of the join that built it when that join took
// the parallel path (sequential joins, sized-only Cartesian products and
// sets recorded empty without a join contribute 0, so the counter
// divided by the fixed partition count is the number of parallel joins),
// and the `eval.intern.values` gauge tracks how many distinct values the
// result dictionary holds. A nil recorder detaches instrumentation.
func (e *Evaluator) WithRecorder(rec *obs.Recorder) *Evaluator {
	e.rec = rec
	e.cMemoHits = rec.Counter(obs.MetricEvalMemoHits)
	e.cMemoMisses = rec.Counter(obs.MetricEvalMemoMisses)
	e.cTuples = rec.Counter(obs.MetricEvalTuples)
	e.cStates = rec.Counter(obs.MetricEvalStates)
	e.cSteps = rec.Counter(obs.MetricEvalSteps)
	e.cJoinParts = rec.Counter(obs.MetricJoinPartitions)
	e.gIntern = rec.Gauge(obs.MetricEvalInternValues)
	return e
}

// Recorder returns the evaluator's observability recorder (nil when
// uninstrumented). The optimizers and tracers read it so one attachment
// point instruments the whole evaluation stack.
func (e *Evaluator) Recorder() *obs.Recorder { return e.rec }

// Database returns the underlying database.
func (e *Evaluator) Database() *Database { return e.db }

// Eval returns R_S for the subset s. It panics on the empty set, for
// which R_S is undefined in the model. The charge is the same as
// Size's. A disconnected s's Cartesian product is built from its
// components' relations on the first Eval that asks for it and kept in
// s's entry.
func (e *Evaluator) Eval(s hypergraph.Set) *relation.Relation {
	en := e.request(s)
	if en.rel != nil {
		return en.rel
	}
	if en.size == 0 {
		en.rel = e.emptyRel(s)
	} else {
		// Sizing s built every component, none of them empty.
		for _, c := range e.db.Graph().Components(s) {
			if cr := e.built(c).rel; en.rel == nil {
				en.rel = cr
			} else {
				en.rel = relation.Join(en.rel, cr)
			}
		}
	}
	e.memo[s] = en
	return en.rel
}

// Size returns τ(R_S) for the subset s: the number of tuples in the join
// of the selected states. It aborts with a *SizeError when that exceeds
// MaxSize.
func (e *Evaluator) Size(s hypergraph.Set) int { return e.request(s).size }

// request returns s's entry, charged. A miss first requests s∖{min s},
// which resolves the rest of the suffix chain smallest first, then
// builds s unless a helper build already did, and charges it.
func (e *Evaluator) request(s hypergraph.Set) memoEntry {
	if s.Empty() {
		panic("database: Eval of empty subset")
	}
	if e.guard != nil {
		// Cheap cancellation poll: memo hits dominate the enumeration
		// and DP hot loops, and this is what keeps them interruptible.
		guard.Must(e.guard.Tick())
	}
	en := e.memo[s]
	if en.charged {
		e.cMemoHits.Inc()
		return en
	}
	e.cMemoMisses.Inc()
	first := s.First()
	if s == hypergraph.Singleton(first) {
		en = e.base(first)
		en.charged = true
		e.memo[s] = en
		return en
	}
	rest := e.request(s.Remove(first))
	if !en.built {
		if rest.size == 0 {
			// R_s = R_rest ⋈ R_first is empty whatever R_first holds.
			en = e.emptyEntry(s)
		} else {
			en = e.build(s, rest.rel)
		}
	}
	// Memoize before charging: the work is done either way, and a warm
	// memo lets a degradation fallback reuse it free of charge.
	en.charged = true
	e.memo[s] = en
	// Count before the charge can abort, mirroring the guard's ledger
	// semantics: a charge that trips is still spent.
	e.cTuples.Add(int64(en.size))
	e.cStates.Inc()
	e.cSteps.Inc()
	dict := e.db.Relation(first).Dict()
	if en.rel != nil {
		e.cJoinParts.Add(int64(en.rel.JoinPartitions()))
		dict = en.rel.Dict()
	}
	e.gIntern.Set(int64(dict.Len()))
	if e.guard != nil {
		guard.Must(e.guard.ChargeEval(en.size))
	}
	return en
}

// built returns s's entry, building it uncharged — a helper build — when
// the memo has none.
func (e *Evaluator) built(s hypergraph.Set) memoEntry {
	if first := s.First(); s == hypergraph.Singleton(first) {
		return e.base(first)
	}
	if en := e.memo[s]; en.built {
		return en
	}
	// A helper build charges nothing, so it polls the context itself.
	guard.Must(e.guard.Err())
	en := e.build(s, nil)
	e.memo[s] = en
	return en
}

// base is the entry of the single relation i.
func (e *Evaluator) base(i int) memoEntry {
	r := e.db.Relation(i)
	return memoEntry{rel: r, size: r.Size(), built: true}
}

// emptyEntry is the entry of a set s with R_s = ∅.
func (e *Evaluator) emptyEntry(s hypergraph.Set) memoEntry {
	en := memoEntry{built: true}
	if e.db.Graph().Connected(s) {
		en.rel = e.emptyRel(s)
	}
	return en
}

// emptyRel returns an empty relation over s's attributes.
func (e *Evaluator) emptyRel(s hypergraph.Set) *relation.Relation {
	return relation.NewIn(e.db.Relation(s.First()).Dict(), "", e.db.Graph().Attrs(s))
}

// build computes the entry of s, which has two or more relations,
// without charging it. restRel is R_{s∖{min s}} when the caller holds it,
// else nil.
func (e *Evaluator) build(s hypergraph.Set, restRel *relation.Relation) memoEntry {
	if !s.Disjoint(e.empty) {
		// A set holding an empty relation joins to ∅ whatever else it holds.
		return e.emptyEntry(s)
	}
	g := e.db.Graph()
	if !g.Connected(s) {
		size := 1
		for _, c := range g.Components(s) {
			if size = mulSize(size, e.built(c).size); size == 0 {
				break
			}
		}
		if size > MaxSize {
			guard.Abort(&SizeError{Set: s, Phase: e.guard.Phase()})
		}
		return memoEntry{size: size, built: true}
	}
	// Split off the lowest-indexed relation whose removal leaves the rest
	// connected; one exists, a leaf of any spanning tree of s.
	x := s.First()
	for t := s; !g.Connected(s.Remove(x)); {
		t &= t - 1
		x = t.First()
	}
	if x != s.First() || restRel == nil {
		restRel = e.built(s.Remove(x)).rel
	}
	r := relation.Join(restRel, e.db.Relation(x))
	return memoEntry{rel: r, size: r.Size(), built: true}
}

// mulSize multiplies two sizes, saturating just above MaxSize so that a
// later empty factor still brings the product back to 0.
func mulSize(a, b int) int {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > MaxSize {
		return MaxSize + 1
	}
	return int(lo)
}

// JoinSize returns τ(R_a ⋈ R_b) for disjoint subsets a and b — which by
// definition equals τ(R_{a∪b}).
func (e *Evaluator) JoinSize(a, b hypergraph.Set) int {
	if !a.Disjoint(b) {
		panic("database: JoinSize of overlapping subsets")
	}
	return e.Size(a.Union(b))
}

// Result returns R_D, the final result of evaluating the full database.
func (e *Evaluator) Result() *relation.Relation { return e.Eval(e.db.All()) }

// ResultNonEmpty reports the paper's standing hypothesis R_D ≠ ∅.
func (e *Evaluator) ResultNonEmpty() bool { return e.Size(e.db.All()) > 0 }

// MemoLen reports how many subsets have memo entries, helper builds
// included, for tests and instrumentation.
func (e *Evaluator) MemoLen() int { return len(e.memo) }
