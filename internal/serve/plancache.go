package serve

import (
	"container/list"
	"sync"

	"multijoin/internal/core"
	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

// The plan cache. Optimization is the expensive half of a request — the
// DP examines up to 2^n states — while the *outcome* is a small tree
// over relation indexes. The cache keys that tree by a digest of the
// request's database bytes, so a repeat of a query against unchanged
// data skips the DP entirely: the acceptance criterion is that a cache
// hit leaves `dp.states` flat. Any change to the data changes the bytes
// and misses naturally — there is no explicit invalidation protocol to
// get wrong. The statistics fingerprint (core.Fingerprint) is no key:
// databases with equal cardinalities and distinct counts can still have
// different τ and different optimal plans.

// defaultPlanCacheCap bounds the cache when Config leaves it zero.
const defaultPlanCacheCap = 256

// cachedPlan is one cache entry: the plan tree plus how it was obtained,
// so a hit can re-enter the ladder at the rung that chose it, and the
// database's statistics fingerprint, which a hit reports without
// tallying the database again (the key digests the same bytes).
type cachedPlan struct {
	strategy    *strategy.Node
	rung        Rung
	cost        int64
	estimated   bool
	fingerprint core.Fingerprint
}

// planCache is a concurrency-safe LRU from database digest to plan.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *planEntry
	entries map[uint64]*list.Element

	cHit   *obs.Counter
	cMiss  *obs.Counter
	cEvict *obs.Counter
	gSize  *obs.Gauge
}

type planEntry struct {
	key  uint64
	plan cachedPlan
}

func newPlanCache(capacity int, rec *obs.Recorder) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[uint64]*list.Element, capacity),
		cHit:    rec.Counter(obs.MetricServeCacheHit),
		cMiss:   rec.Counter(obs.MetricServeCacheMiss),
		cEvict:  rec.Counter(obs.MetricServeCacheEvict),
		gSize:   rec.Gauge(obs.MetricServeCacheSize),
	}
}

// get returns the cached plan for the digest, refreshing its
// recency on a hit. acceptEstimated widens the lookup to entries filled
// from estimate-mode planning: exact requests must pass false (they owe
// the caller a τ-optimal plan, and an estimated entry is not one), so
// for them an estimated entry counts as a miss — without refreshing its
// recency, since the exact plan about to be computed will overwrite it.
func (pc *planCache) get(key uint64, acceptEstimated bool) (cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.cMiss.Inc()
		return cachedPlan{}, false
	}
	if el.Value.(*planEntry).plan.estimated && !acceptEstimated {
		pc.cMiss.Inc()
		return cachedPlan{}, false
	}
	pc.order.MoveToFront(el)
	pc.cHit.Inc()
	return el.Value.(*planEntry).plan, true
}

// put stores a plan under the digest, evicting the least recently
// used entry past capacity. Storing again under a live key refreshes the
// plan in place (a concurrent request may have planned the same shape).
func (pc *planCache) put(key uint64, plan cachedPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[key]; ok {
		el.Value.(*planEntry).plan = plan
		pc.order.MoveToFront(el)
		return
	}
	pc.entries[key] = pc.order.PushFront(&planEntry{key: key, plan: plan})
	for pc.order.Len() > pc.cap {
		oldest := pc.order.Back()
		pc.order.Remove(oldest)
		delete(pc.entries, oldest.Value.(*planEntry).key)
		pc.cEvict.Inc()
	}
	pc.gSize.Set(int64(pc.order.Len()))
}

// len reports the number of cached plans.
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.order.Len()
}
