package serve

import (
	"sync"
	"testing"

	"multijoin/internal/obs"
	"multijoin/internal/strategy"
)

func TestPlanCacheLRUEviction(t *testing.T) {
	rec := obs.NewRecorder()
	pc := newPlanCache(2, rec)
	plan := cachedPlan{strategy: strategy.Leaf(0), rung: RungDP, cost: 1}

	pc.put(1, plan)
	pc.put(2, plan)
	pc.get(1, false) // refresh 1 → 2 is now least recent
	pc.put(3, plan)

	if _, ok := pc.get(2, false); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if _, ok := pc.get(1, false); !ok {
		t.Error("recently-used entry evicted")
	}
	if _, ok := pc.get(3, false); !ok {
		t.Error("newest entry evicted")
	}
	if pc.len() != 2 {
		t.Errorf("len = %d, want 2", pc.len())
	}
	if rec.Counter("serve.cache.evict").Value() != 1 {
		t.Errorf("evict counter = %d, want 1", rec.Counter("serve.cache.evict").Value())
	}
}

func TestPlanCacheRefreshInPlace(t *testing.T) {
	pc := newPlanCache(2, nil)
	pc.put(1, cachedPlan{strategy: strategy.Leaf(0), rung: RungGreedy, cost: 9})
	pc.put(1, cachedPlan{strategy: strategy.Leaf(0), rung: RungDP, cost: 5})
	got, ok := pc.get(1, false)
	if !ok || got.rung != RungDP || got.cost != 5 {
		t.Fatalf("refresh lost: %+v %v", got, ok)
	}
	if pc.len() != 1 {
		t.Errorf("len = %d after double put under one key", pc.len())
	}
}

func TestPlanCacheHitMissCounters(t *testing.T) {
	rec := obs.NewRecorder()
	pc := newPlanCache(0, rec) // 0 selects the default capacity
	if _, ok := pc.get(7, false); ok {
		t.Fatal("hit on empty cache")
	}
	pc.put(7, cachedPlan{strategy: strategy.Leaf(0)})
	if _, ok := pc.get(7, false); !ok {
		t.Fatal("miss after put")
	}
	if rec.Counter("serve.cache.hit").Value() != 1 || rec.Counter("serve.cache.miss").Value() != 1 {
		t.Errorf("hit/miss = %d/%d, want 1/1",
			rec.Counter("serve.cache.hit").Value(), rec.Counter("serve.cache.miss").Value())
	}
}

// TestPlanCacheConcurrentHitFillEvict hammers one small cache from many
// goroutines doing get-else-put over a key space four times the
// capacity. Run under -race in CI, it is the cache's concurrency-safety
// test; the counter identities are checked after the dust settles.
func TestPlanCacheConcurrentHitFillEvict(t *testing.T) {
	rec := obs.NewRecorder()
	pc := newPlanCache(8, rec)
	plan := cachedPlan{strategy: strategy.Leaf(0), rung: RungDP, cost: 1}

	const (
		workers = 8
		ops     = 500
		keys    = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := uint64((w*ops + i) % keys)
				if _, ok := pc.get(key, false); !ok {
					pc.put(key, plan)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := pc.len(); got > 8 {
		t.Errorf("cache grew past capacity: len %d", got)
	}
	hits := rec.Counter("serve.cache.hit").Value()
	misses := rec.Counter("serve.cache.miss").Value()
	if hits+misses != workers*ops {
		t.Errorf("hit %d + miss %d ≠ %d lookups", hits, misses, workers*ops)
	}
	// 32 keys cycling through an 8-entry cache must evict; with capacity
	// respected, evictions are at least fills − capacity.
	if evicts := rec.Counter("serve.cache.evict").Value(); evicts == 0 {
		t.Error("no evictions despite 4× key pressure")
	}
}
