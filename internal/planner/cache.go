package planner

import (
	"container/list"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Cache memoizes plans across calls. Iterative applications (BFS, BC, MCL,
// k-truss) re-multiply against a mask and frontier that change every sweep
// while the graph operand stays fixed; re-running the O(nnz(A)) analysis per
// sweep would waste exactly the overhead the planner is meant to hide.
//
// The key combines the *identity* of the static B operand (backing-array
// pointer, dimensions, nnz — all O(1)) with the mask dimensions, mask mode,
// and log2 size buckets of the changing M and A operands. Sweeps whose
// frontier stays in the same order of magnitude reuse the plan; when the
// frontier grows past a power of two the bucket changes and the call is
// re-analyzed, which is exactly when the right variant may change too.
//
// The cache is one mutex-guarded map with one cache-wide LRU list: it
// holds exactly its capacity in plans, evicting the least recently used, and
// the hit/miss/eviction/replan counters are monotonic atomics — Stats taken
// at two points in time never runs backwards, so operators can difference
// snapshots. Eviction only unlinks a plan from the cache; plans are
// immutable after Analyze, so a caller holding an evicted plan can keep
// Executing it (see TestEvictedPlanStillExecutes).
type Cache struct {
	mu       sync.Mutex
	plans    map[cacheKey]*list.Element // value: *cacheEntry
	lru      list.List                  // Front() is the most recently used
	capacity int
	// hits, misses, evictions and replans are monotonic for the lifetime of
	// the cache (Reset drops entries, never history).
	hits, misses, evictions, replans atomic.Int64
	// model is the cost model misses analyze with; nil means DefaultModel.
	// Atomic so SetModel (session calibration) is safe against concurrent
	// analyses; the *Model it points to is immutable.
	model atomic.Pointer[Model]
}

// cacheEntry is one cached plan with its key (needed to delete from the map
// when the LRU tail is evicted).
type cacheEntry struct {
	key  cacheKey
	plan *Plan
}

// fingerprint identifies a matrix by storage identity, not content: the
// pointer to its RowPtr backing array plus shape. Rebuilding an identical
// matrix misses the cache, which costs only a re-analysis.
type fingerprint struct {
	ptr          *Index
	nrows, ncols Index
	nnz          int
}

func fp(p *matrix.Pattern) fingerprint {
	f := fingerprint{nrows: p.NRows, ncols: p.NCols, nnz: p.NNZ()}
	if len(p.RowPtr) > 0 {
		f.ptr = &p.RowPtr[0]
	}
	return f
}

type cacheKey struct {
	b            fingerprint
	mRows, mCols Index
	complement   bool
	rep          core.MaskRep // caller-pinned mask representation (RepAuto when unpinned)
	sched        core.Sched   // caller-pinned scheduling policy (SchedAuto when unpinned)
	mBucket      int8         // log2 bucket of nnz(M)
	aBucket      int8         // log2 bucket of nnz(A)
	aRows        Index
}

func bucket(nnz int) int8 { return int8(bits.Len64(uint64(nnz))) }

// makeKey derives the cache key of one call — the single definition both
// Analyze and Peek use, so the two can never diverge on what plan identity
// means.
func makeKey(m, a, b *matrix.Pattern, opt core.Options) cacheKey {
	return cacheKey{
		b:          fp(b),
		mRows:      m.NRows,
		mCols:      m.NCols,
		complement: opt.Complement,
		rep:        opt.MaskRep,
		sched:      opt.Sched,
		mBucket:    bucket(m.NNZ()),
		aBucket:    bucket(a.NNZ()),
		aRows:      a.NRows,
	}
}

// DefaultCacheCapacity is the entry bound NewCache uses. An entry holds its
// plan's per-row cost profile and pins its B operand's RowPtr array through
// the fingerprint pointer: about 12 bytes per row. Callers that build a
// fresh B on every call (triangle counting) leave entries that never hit
// again, so the bound is what caps their retained memory.
const DefaultCacheCapacity = 64

// NewCache returns an empty plan cache with the default capacity
// (DefaultCacheCapacity entries), safe for concurrent use. Caches are
// session-scoped: masked.Session and apps.Session each own one, so
// concurrent workloads do not contend on (or evict) each other's plans.
// (A process-wide Shared cache existed before sessions; it was removed
// because a mutable global is exactly the wrong ownership for a serving
// system.)
func NewCache() *Cache { return NewCacheCapacity(0) }

// NewCacheCapacity returns an empty plan cache bounded to exactly the given
// number of entries, LRU-evicted (<= 0 means DefaultCacheCapacity).
func NewCacheCapacity(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{plans: make(map[cacheKey]*list.Element), capacity: capacity}
}

// CacheStats is a point-in-time snapshot of a plan cache's counters.
// Hits, Misses, Evictions and Replans are monotonic over the cache's
// lifetime (Reset drops entries, not history), so two snapshots can be
// differenced to rate a time window. Entries is the current resident plan
// count.
type CacheStats struct {
	// Hits counts Analyze calls answered from the cache.
	Hits int64
	// Misses counts Analyze calls that ran the full analysis.
	Misses int64
	// Evictions counts plans dropped to keep the cache under its bound.
	Evictions int64
	// Replans counts the misses that found a resident plan for the key but
	// re-analyzed anyway: the plan's kernels need sorted rows and the
	// current M or A is unsorted (the key buckets M and A only by size).
	Replans int64
	// Entries is the resident plan count at snapshot time.
	Entries int
	// Capacity is the entry bound.
	Capacity int
}

// Analyze returns a cached plan for the operands if one exists, else runs
// the full analysis and stores the result. Cached plans are returned as
// shallow copies with CacheHit set.
//
// A cached plan whose kernels require sorted rows (the key buckets M and A
// only by size, and the sweep may present different matrices) is revalidated
// against the current M and A before reuse; B is part of the key's identity,
// so its sortedness cannot have changed. A failed revalidation re-analyzes
// and counts as both a miss and a replan.
func (c *Cache) Analyze(m, a, b *matrix.Pattern, opt core.Options) *Plan {
	key := makeKey(m, a, b, opt)
	c.mu.Lock()
	var p *Plan
	if el, ok := c.plans[key]; ok {
		p = el.Value.(*cacheEntry).plan
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if p != nil {
		if !p.NeedsSortedRows() || (sortedRows(m, opt.Workers()) && sortedRows(a, opt.Workers())) {
			c.hits.Add(1)
			hit := *p
			hit.CacheHit = true
			return &hit
		}
		c.replans.Add(1)
	}
	p = AnalyzeModel(m, a, b, opt, c.Model())
	c.misses.Add(1)
	c.mu.Lock()
	if el, ok := c.plans[key]; ok {
		// The resident plan failed revalidation, or another request
		// analyzed the same product while we did: either way install ours
		// in the resident entry (no pointer identity is promised between
		// Analyze results) and refresh its recency.
		el.Value.(*cacheEntry).plan = p
		c.lru.MoveToFront(el)
	} else {
		if c.lru.Len() >= c.capacity {
			tail := c.lru.Back()
			c.lru.Remove(tail)
			delete(c.plans, tail.Value.(*cacheEntry).key)
			c.evictions.Add(1)
		}
		c.plans[key] = c.lru.PushFront(&cacheEntry{key: key, plan: p})
	}
	c.mu.Unlock()
	return p
}

// SetModel installs the cost model subsequent misses analyze with (nil
// resets to DefaultModel). Resident plans are not re-analyzed — their
// entries age out by LRU or bucket change — so a session calibrates once,
// before its first products, and serving sessions can still swap models
// live without a stop-the-world.
func (c *Cache) SetModel(m *Model) { c.model.Store(m) }

// Model returns the cost model cache misses analyze with (never nil).
func (c *Cache) Model() *Model {
	if m := c.model.Load(); m != nil {
		return m
	}
	return DefaultModel()
}

// Peek returns the cached plan for the operands without analyzing on a miss
// and without touching the hit/miss counters or the LRU order. The serving
// layer uses it to price a request (Plan.Stats.Flops feeds the worker-share
// arbitration) before deciding how many workers the real Analyze+Execute
// runs with.
func (c *Cache) Peek(m, a, b *matrix.Pattern, opt core.Options) (*Plan, bool) {
	key := makeKey(m, a, b, opt)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.plans[key]; ok {
		return el.Value.(*cacheEntry).plan, true
	}
	return nil, false
}

// Stats returns a snapshot of the cache counters. Hits, Misses, Evictions
// and Replans never decrease over the cache's lifetime.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	entries := len(c.plans)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Replans:   c.replans.Load(),
		Entries:   entries,
		Capacity:  c.capacity,
	}
}

// Reset drops all cached plans. The counters are *not* reset: they are
// monotonic for the cache's lifetime so that stats snapshots can always be
// differenced (a serving dashboard must never see a counter run backwards).
func (c *Cache) Reset() {
	c.mu.Lock()
	c.plans = make(map[cacheKey]*list.Element)
	c.lru.Init()
	c.mu.Unlock()
}
