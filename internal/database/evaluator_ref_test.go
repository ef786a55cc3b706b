package database

import (
	"sync"

	"multijoin/internal/guard"
	"multijoin/internal/hypergraph"
	"multijoin/internal/obs"
	"multijoin/internal/relation"
)

// ReferenceEvaluator is the evaluator as it was before Cartesian products
// were sized from their components: it materializes R_S for every subset
// S it is asked about by joining S's lowest-indexed relation onto the
// memoized R_{S∖{min S}}, Cartesian products included, and charges each
// materialization when it is made. The differential tests hold the
// production Evaluator to its sizes, relations and guard ledger.
type ReferenceEvaluator struct {
	db     *Database
	shards [refShardCount]refShard
	guard  *guard.Guard
	rec    *obs.Recorder

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

// refShardCount is the number of reference memo stripes.
const refShardCount = 64

// refShard is one stripe of the reference memo.
type refShard struct {
	mu       sync.RWMutex
	rels     map[hypergraph.Set]*relation.Relation
	inflight map[hypergraph.Set]chan struct{}
}

// shard returns the stripe responsible for subset s. The bitmask is
// mixed with a Fibonacci-hashing constant so that the dense low-bit
// subsets the DPs enumerate spread over all stripes.
func (e *ReferenceEvaluator) shard(s hypergraph.Set) *refShard {
	h := uint64(s) * 0x9E3779B97F4A7C15
	return &e.shards[h>>(64-6)] // top 6 bits index 64 shards
}

// NewReferenceEvaluator creates a reference evaluator for the database.
func NewReferenceEvaluator(db *Database) *ReferenceEvaluator {
	e := &ReferenceEvaluator{db: db}
	for i := range e.shards {
		e.shards[i].rels = make(map[hypergraph.Set]*relation.Relation)
		e.shards[i].inflight = make(map[hypergraph.Set]chan struct{})
	}
	return e
}

// WithGuard attaches a resource guard to the evaluator and returns it.
// A nil guard detaches governance.
func (e *ReferenceEvaluator) WithGuard(g *guard.Guard) *ReferenceEvaluator {
	e.guard = g
	return e
}

// WithRecorder attaches an observability recorder and returns the
// evaluator. It counts into the same metrics as Evaluator.WithRecorder.
func (e *ReferenceEvaluator) WithRecorder(rec *obs.Recorder) *ReferenceEvaluator {
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

// Eval returns R_D′ for the subset s. It panics on the empty set, for
// which R_D′ is undefined in the model.
//
// Concurrent calls on the same subset compute the join once: the first
// caller to miss installs an in-flight latch and materializes, later
// callers block on the latch and then take the memo hit. If the
// computing goroutine aborts (guard trip) after memoizing, waiters
// still get the result free of charge — exactly what a sequential
// re-Eval after a trip would see.
func (e *ReferenceEvaluator) Eval(s hypergraph.Set) *relation.Relation {
	if s.Empty() {
		panic("database: Eval of empty subset")
	}
	sh := e.shard(s)
	for {
		if e.guard != nil {
			// Cheap cancellation poll: memo hits dominate the enumeration
			// and DP hot loops, and this is what keeps them interruptible.
			guard.Must(e.guard.Tick())
		}
		sh.mu.RLock()
		r, ok := sh.rels[s]
		sh.mu.RUnlock()
		if ok {
			e.cMemoHits.Inc()
			return r
		}
		sh.mu.Lock()
		if r, ok := sh.rels[s]; ok {
			sh.mu.Unlock()
			e.cMemoHits.Inc()
			return r
		}
		if latch, ok := sh.inflight[s]; ok {
			sh.mu.Unlock()
			// The computer releases the latch on every path — success,
			// guard abort, even a join panic — so this cannot block
			// forever. Loop back: the memo usually holds the result now;
			// if the computer died before memoizing, this caller takes
			// over the computation.
			<-latch
			continue
		}
		latch := make(chan struct{})
		sh.inflight[s] = latch
		sh.mu.Unlock()
		return e.compute(sh, s, latch)
	}
}

// compute materializes the subset s, holding its in-flight latch. The
// latch is released on every exit path, including a guard abort
// unwinding through the charge, so waiters never deadlock.
func (e *ReferenceEvaluator) compute(sh *refShard, s hypergraph.Set, latch chan struct{}) *relation.Relation {
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, s)
		sh.mu.Unlock()
		close(latch)
	}()
	e.cMemoMisses.Inc()
	var result *relation.Relation
	if s.Len() == 1 {
		result = e.db.Relation(s.First())
	} else {
		first := s.First()
		rest := s.Remove(first)
		result = relation.Join(e.Eval(rest), e.db.Relation(first))
	}
	// Memoize before charging: the work is done either way, and a warm
	// memo lets a degradation fallback reuse it free of charge.
	sh.mu.Lock()
	sh.rels[s] = result
	sh.mu.Unlock()
	if s.Len() > 1 {
		// Count before the charge can abort, mirroring the guard's
		// ledger semantics: spend reflects work actually performed.
		e.cTuples.Add(int64(result.Size()))
		e.cStates.Inc()
		e.cSteps.Inc()
		e.cJoinParts.Add(int64(result.JoinPartitions()))
		e.gIntern.Set(int64(result.Dict().Len()))
		if e.guard != nil {
			guard.Must(e.guard.ChargeEval(result.Size()))
		}
	}
	return result
}

// Size returns τ(R_D′) for the subset s: the number of tuples in the
// join of the selected states.
func (e *ReferenceEvaluator) Size(s hypergraph.Set) int { return e.Eval(s).Size() }

// Result returns R_D, the final result of evaluating the full database.
func (e *ReferenceEvaluator) Result() *relation.Relation { return e.Eval(e.db.All()) }
