package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metric families recorded by a Cache.
const (
	// MetricCacheHits / MetricCacheMisses count lookups that returned a
	// cached decision vs lookups that had to evaluate. Together with
	// MetricCacheCoalesced they partition all cached-path lookups.
	MetricCacheHits   = "serve_cache_hits_total"
	MetricCacheMisses = "serve_cache_misses_total"
	// MetricCacheCoalesced counts lookups that neither hit nor evaluated:
	// they joined an identical in-flight evaluation (single-flight) and
	// shared its result.
	MetricCacheCoalesced = "serve_cache_coalesced_total"
	// MetricCacheEvictions counts entries dropped by LRU capacity pressure.
	MetricCacheEvictions = "serve_cache_evictions_total"
	// MetricCacheStaleDrops counts entries dropped because a lookup found
	// them cached under a different stamp — the implicit invalidation path
	// after a snapshot swap or a retrain (or a rollback: a degraded engine
	// serving the last good snapshot drops entries cached under the failed
	// newer version the same way).
	MetricCacheStaleDrops = "serve_cache_stale_drops_total"
	// MetricCacheSize is the current number of cached decisions.
	MetricCacheSize = "serve_cache_size"
)

// CacheConfig parameterizes a Cache. The zero value disables caching.
type CacheConfig struct {
	// Capacity bounds the total number of cached entries across all cache
	// shards. 0 (or negative) disables caching entirely.
	Capacity int
}

// DefaultCacheShards is the number of independently locked segments of a
// Cache (fewer when Capacity is smaller). It must be a power of two: a
// fingerprint's segment is its low bits.
const DefaultCacheShards = 8

// cacheEntry is one cached value: valid only at exactly the stamp it was
// computed under. Entries form a per-shard LRU list.
type cacheEntry[S comparable, V any] struct {
	fp         uint64
	stamp      S
	val        V
	prev, next *cacheEntry[S, V]
}

// inflightCall is a single-flight slot: the first goroutine to miss on a
// (fingerprint, stamp) pair evaluates; concurrent lookups for the same pair
// park on done and share the result. done is a WaitGroup at count 1 rather
// than a channel: every miss allocates a slot, and a WaitGroup needs no
// allocation of its own.
type inflightCall[S comparable, V any] struct {
	stamp   S
	done    sync.WaitGroup
	val     V
	ok      bool // compute returned (false when it panicked)
	waiters int  // parked lookups (under the shard lock); coalesced on completion
}

// cacheShard is one independently locked segment: an intrusive LRU list over
// a fingerprint-keyed map plus the segment's in-flight table. At most one
// entry per fingerprint is kept — a new stamp replaces, never accretes — so
// memory is bounded by capacity regardless of rulebase or model churn.
type cacheShard[S comparable, V any] struct {
	mu         sync.Mutex
	entries    map[uint64]*cacheEntry[S, V]
	head, tail *cacheEntry[S, V] // LRU order: head is most recent
	cap        int
	inflight   map[uint64]*inflightCall[S, V]
}

// Cache memoizes one value per item fingerprint, valid at exactly one stamp:
// the state of everything else the value was computed from. The pipeline's
// decision cache stamps a Decision with (rulebase version, model
// generation); the verdict instantiation (VerdictCache) stamps a classifier
// verdict with a snapshot version. It is the serving layer's answer to the
// paper's skewed re-submission traffic: under a stable stamp the Zipf head of
// the catalog is classified once and served from memory thereafter.
//
// Correctness rests on three invariants:
//
//   - values are immutable once cached, so a cached value can be shared by
//     any number of readers (a caller that hands out a mutable part, such as
//     a slice, copies it);
//   - an entry is returned only when its stamp matches the caller's exactly.
//     A mismatch drops the entry on the spot (counted in
//     serve_cache_stale_drops_total), which makes invalidation implicit in
//     the stamp — and makes rollback safe: a degraded engine serving the last
//     good snapshot can never be answered from entries cached under the
//     failed newer version, in either direction;
//   - concurrent misses on the same (fingerprint, stamp) coalesce: one
//     evaluates, the rest wait and share (single-flight), so a thundering
//     herd on a hot item costs one evaluation.
//
// The cache is sharded by fingerprint low bits; shards never share locks.
// A nil *Cache is valid and means "uncached" (every Do evaluates).
type Cache[S comparable, V any] struct {
	shards []*cacheShard[S, V]
	mask   uint64

	hits       *obs.Counter
	misses     *obs.Counter
	coalesced  *obs.Counter
	evictions  *obs.Counter
	staleDrops *obs.Counter
	size       *obs.Gauge
}

// VerdictCache is the verdict instantiation of Cache: classifier verdicts
// keyed by (item fingerprint, snapshot version).
type VerdictCache = Cache[uint64, *core.Verdict]

// NewVerdictCache is NewCache for classifier verdicts.
func NewVerdictCache(cfg CacheConfig, reg *obs.Registry) *VerdictCache {
	return NewCache[uint64, *core.Verdict](cfg, reg)
}

// NewCache builds a cache from cfg, registering its metrics in reg
// (obs.Default when nil). Returns nil — a valid, always-miss cache — when
// cfg.Capacity <= 0, so callers can wire the config through unconditionally.
func NewCache[S comparable, V any](cfg CacheConfig, reg *obs.Registry) *Cache[S, V] {
	if cfg.Capacity <= 0 {
		return nil
	}
	if reg == nil {
		reg = obs.Default()
	}
	pow := DefaultCacheShards
	for pow > cfg.Capacity {
		pow >>= 1 // never let sharding zero out per-shard capacity
	}
	c := &Cache[S, V]{
		shards:     make([]*cacheShard[S, V], pow),
		mask:       uint64(pow - 1),
		hits:       reg.Counter(MetricCacheHits),
		misses:     reg.Counter(MetricCacheMisses),
		coalesced:  reg.Counter(MetricCacheCoalesced),
		evictions:  reg.Counter(MetricCacheEvictions),
		staleDrops: reg.Counter(MetricCacheStaleDrops),
		size:       reg.Gauge(MetricCacheSize),
	}
	reg.Help(MetricCacheHits, "decision cache hits (exact stamp match)")
	reg.Help(MetricCacheMisses, "decision cache misses (evaluated and inserted)")
	reg.Help(MetricCacheCoalesced, "decision lookups that joined an in-flight evaluation (single-flight)")
	reg.Help(MetricCacheEvictions, "cached decisions evicted by LRU capacity pressure")
	reg.Help(MetricCacheStaleDrops, "cached decisions dropped on stamp mismatch (rulebase state or model generation)")
	reg.Help(MetricCacheSize, "cached decisions currently resident")
	per := cfg.Capacity / pow
	for i := range c.shards {
		c.shards[i] = &cacheShard[S, V]{
			entries:  make(map[uint64]*cacheEntry[S, V]),
			cap:      per,
			inflight: make(map[uint64]*inflightCall[S, V]),
		}
	}
	return c
}

// Capacity returns the total entry budget across shards (0 for nil).
func (c *Cache[S, V]) Capacity() int {
	if c == nil {
		return 0
	}
	return len(c.shards) * c.shards[0].cap
}

// Len returns the number of currently cached entries (0 for nil).
func (c *Cache[S, V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time counter snapshot (see Cache.Stats).
type CacheStats struct {
	Hits, Misses, Coalesced int64
	Evictions, StaleDrops   int64
	Size, Capacity          int
}

// Stats snapshots the cache counters. Safe on a nil cache (all zero).
func (c *Cache[S, V]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:       c.hits.Value(),
		Misses:     c.misses.Value(),
		Coalesced:  c.coalesced.Value(),
		Evictions:  c.evictions.Value(),
		StaleDrops: c.staleDrops.Value(),
		Size:       c.Len(),
		Capacity:   c.Capacity(),
	}
}

// HitRate returns hits/(hits+misses+coalesced), or 0 before any lookups.
// Coalesced lookups count toward the denominator but not as hits: they did
// not evaluate, but they did wait on an evaluation.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Get returns the value cached for (fp, stamp), if any. A resident entry
// under a different stamp is dropped (stale) and reported as a miss. Used by
// the batch path, which collects misses and evaluates them together; the
// single-item path should use Do.
func (c *Cache[S, V]) Get(fp uint64, stamp S) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	if e, found := sh.entries[fp]; found {
		if e.stamp == stamp {
			sh.moveToFront(e)
			v = e.val // under the lock: insert replaces an entry's value in place
			sh.mu.Unlock()
			c.hits.Inc()
			return v, true
		}
		sh.unlink(e)
		delete(sh.entries, fp)
		sh.mu.Unlock()
		c.staleDrops.Inc()
		c.size.Add(-1)
		c.misses.Inc()
		return v, false
	}
	sh.mu.Unlock()
	c.misses.Inc()
	return v, false
}

// Put inserts (or replaces) the value for (fp, stamp), evicting the
// least-recently-used entry when the shard is full. No-op on nil.
func (c *Cache[S, V]) Put(fp uint64, stamp S, v V) {
	if c == nil {
		return
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	evicted, grew := sh.insert(fp, stamp, v)
	sh.mu.Unlock()
	if evicted {
		c.evictions.Inc()
		c.size.Add(-1)
	}
	if grew {
		c.size.Add(1)
	}
}

// Do returns the value for (fp, stamp), evaluating via compute on a miss.
// cached reports whether the result came from the cache or from an in-flight
// evaluation started by another goroutine (single-flight); when false, this
// call ran compute itself and inserted the result.
//
// On a nil cache, Do simply runs compute.
func (c *Cache[S, V]) Do(fp uint64, stamp S, compute func() V) (v V, cached bool) {
	if c == nil {
		return compute(), false
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	if e, ok := sh.entries[fp]; ok {
		if e.stamp == stamp {
			sh.moveToFront(e)
			v = e.val // under the lock: insert replaces an entry's value in place
			sh.mu.Unlock()
			c.hits.Inc()
			return v, true
		}
		// Cached under another stamp: a later one after a swap or a retrain,
		// or a newer failed version after a rollback. Either way the entry
		// must never be served at this stamp — drop it now.
		sh.unlink(e)
		delete(sh.entries, fp)
		c.staleDrops.Inc()
		c.size.Add(-1)
	}
	if call, ok := sh.inflight[fp]; ok && call.stamp == stamp {
		call.waiters++
		sh.mu.Unlock()
		call.done.Wait()
		if !call.ok { // the evaluation this lookup joined panicked
			c.misses.Inc()
			return compute(), false
		}
		c.coalesced.Inc()
		return call.val, true
	}
	// An in-flight call for the same fingerprint at a *different* stamp (a
	// rebuild or retrain raced the lookup) is left alone: this goroutine
	// evaluates unshared rather than serve a cross-stamp result.
	call := &inflightCall[S, V]{stamp: stamp}
	call.done.Add(1)
	register := sh.inflight[fp] == nil
	if register {
		sh.inflight[fp] = call
	}
	sh.mu.Unlock()
	c.misses.Inc()

	defer func() {
		// Release waiters even if compute panicked (nothing is inserted then,
		// and the panic propagates to this caller only after waiters are
		// released).
		sh.mu.Lock()
		if register && sh.inflight[fp] == call {
			delete(sh.inflight, fp)
		}
		var evicted, grew bool
		if call.ok {
			evicted, grew = sh.insert(fp, stamp, call.val)
		}
		sh.mu.Unlock()
		if evicted {
			c.evictions.Inc()
			c.size.Add(-1)
		}
		if grew {
			c.size.Add(1)
		}
		call.done.Done()
	}()
	call.val = compute()
	call.ok = true
	return call.val, false
}

// insert adds or replaces the entry for fp under sh.mu. It reports whether
// an LRU eviction occurred and whether the entry count grew.
func (sh *cacheShard[S, V]) insert(fp uint64, stamp S, v V) (evicted, grew bool) {
	if e, ok := sh.entries[fp]; ok {
		e.stamp, e.val = stamp, v
		sh.moveToFront(e)
		return false, false
	}
	var e *cacheEntry[S, V]
	if len(sh.entries) >= sh.cap {
		// Reuse the evicted entry: entries are read only under sh.mu, so
		// nothing outside the lock still points at it.
		e = sh.tail
		sh.unlink(e)
		delete(sh.entries, e.fp)
		evicted = true
	} else {
		e = new(cacheEntry[S, V])
	}
	e.fp, e.stamp, e.val = fp, stamp, v
	sh.entries[fp] = e
	sh.pushFront(e)
	return evicted, true
}

func (sh *cacheShard[S, V]) pushFront(e *cacheEntry[S, V]) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard[S, V]) unlink(e *cacheEntry[S, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard[S, V]) moveToFront(e *cacheEntry[S, V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
