package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metric families recorded by the verdict cache.
const (
	// MetricCacheHits / MetricCacheMisses count lookups that returned a
	// cached verdict vs lookups that had to evaluate. Together with
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
	// them cached under a different snapshot version — the implicit
	// invalidation path after a rebuild-and-swap (or a rollback: a degraded
	// engine serving the last good snapshot drops entries cached under the
	// failed newer version the same way).
	MetricCacheStaleDrops = "serve_cache_stale_drops_total"
	// MetricCacheSize is the current number of cached verdicts.
	MetricCacheSize = "serve_cache_size"
)

// CacheConfig parameterizes a VerdictCache. The zero value disables caching.
type CacheConfig struct {
	// Capacity bounds the total number of cached verdicts across all cache
	// shards. 0 (or negative) disables caching entirely.
	Capacity int
}

// DefaultCacheShards is the number of independently locked segments of a
// VerdictCache (fewer when Capacity is smaller). It must be a power of two:
// a fingerprint's segment is its low bits.
const DefaultCacheShards = 8

// cacheEntry is one cached verdict: valid only at exactly the snapshot
// version it was computed under. Entries form a per-shard LRU list.
type cacheEntry struct {
	fp         uint64
	version    uint64
	verdict    *core.Verdict
	prev, next *cacheEntry
}

// inflightCall is a single-flight slot: the first goroutine to miss on a
// (fingerprint, version) pair evaluates; concurrent lookups for the same
// pair park on done and share the result.
type inflightCall struct {
	version uint64
	done    chan struct{}
	verdict *core.Verdict
	waiters int // parked lookups (under the shard lock); coalesced on completion
}

// cacheShard is one independently locked segment: an intrusive LRU list over
// a fingerprint-keyed map plus the segment's in-flight table. At most one
// entry per fingerprint is kept — a version bump replaces, never accretes —
// so memory is bounded by capacity regardless of rulebase churn.
type cacheShard struct {
	mu         sync.Mutex
	entries    map[uint64]*cacheEntry
	head, tail *cacheEntry // LRU order: head is most recent
	cap        int
	inflight   map[uint64]*inflightCall
}

// VerdictCache memoizes classifier verdicts keyed by (item fingerprint,
// snapshot version). It is the serving layer's answer to the paper's skewed
// re-submission traffic: under a stable rulebase version the Zipf head of the
// catalog is classified once and served from memory thereafter.
//
// Correctness rests on three invariants:
//
//   - verdicts are immutable after evaluation (the executor contract), so a
//     cached *core.Verdict can be shared by any number of readers and its
//     Explain() output is byte-equal to a fresh evaluation's;
//   - an entry is returned only when its snapshot version matches the
//     caller's exactly. A mismatch drops the entry on the spot (counted in
//     serve_cache_stale_drops_total), which makes invalidation implicit in
//     the version bump — and makes rollback safe: a degraded engine serving
//     the last good snapshot can never be answered from entries cached under
//     the failed newer version, in either direction;
//   - concurrent misses on the same (fingerprint, version) coalesce: one
//     evaluates, the rest wait and share (single-flight), so a thundering
//     herd on a hot item costs one evaluation.
//
// The cache is sharded by fingerprint low bits; shards never share locks.
// A nil *VerdictCache is valid and means "uncached" (every Do evaluates).
type VerdictCache struct {
	shards []*cacheShard
	mask   uint64

	hits       *obs.Counter
	misses     *obs.Counter
	coalesced  *obs.Counter
	evictions  *obs.Counter
	staleDrops *obs.Counter
	size       *obs.Gauge
}

// NewVerdictCache builds a cache from cfg, registering its metrics in reg
// (obs.Default when nil). Returns nil — a valid, always-miss cache — when
// cfg.Capacity <= 0, so callers can wire the config through unconditionally.
func NewVerdictCache(cfg CacheConfig, reg *obs.Registry) *VerdictCache {
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
	c := &VerdictCache{
		shards:     make([]*cacheShard, pow),
		mask:       uint64(pow - 1),
		hits:       reg.Counter(MetricCacheHits),
		misses:     reg.Counter(MetricCacheMisses),
		coalesced:  reg.Counter(MetricCacheCoalesced),
		evictions:  reg.Counter(MetricCacheEvictions),
		staleDrops: reg.Counter(MetricCacheStaleDrops),
		size:       reg.Gauge(MetricCacheSize),
	}
	reg.Help(MetricCacheHits, "verdict cache hits (exact snapshot-version match)")
	reg.Help(MetricCacheMisses, "verdict cache misses (evaluated and inserted)")
	reg.Help(MetricCacheCoalesced, "lookups that joined an in-flight evaluation (single-flight)")
	reg.Help(MetricCacheEvictions, "cached verdicts evicted by LRU capacity pressure")
	reg.Help(MetricCacheStaleDrops, "cached verdicts dropped on snapshot-version mismatch")
	reg.Help(MetricCacheSize, "cached verdicts currently resident")
	per := cfg.Capacity / pow
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			entries:  make(map[uint64]*cacheEntry),
			cap:      per,
			inflight: make(map[uint64]*inflightCall),
		}
	}
	return c
}

// Capacity returns the total entry budget across shards (0 for nil).
func (c *VerdictCache) Capacity() int {
	if c == nil {
		return 0
	}
	return len(c.shards) * c.shards[0].cap
}

// Len returns the number of currently cached verdicts (0 for nil).
func (c *VerdictCache) Len() int {
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

// CacheStats is a point-in-time counter snapshot (see VerdictCache.Stats).
type CacheStats struct {
	Hits, Misses, Coalesced int64
	Evictions, StaleDrops   int64
	Size, Capacity          int
}

// Stats snapshots the cache counters. Safe on a nil cache (all zero).
func (c *VerdictCache) Stats() CacheStats {
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

// Get returns the verdict cached for (fp, version), if any. A resident entry
// under a different version is dropped (stale) and reported as a miss. Used
// by the batch path, which collects misses and evaluates them together; the
// single-item path should use Do.
func (c *VerdictCache) Get(fp, version uint64) (*core.Verdict, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	if e, ok := sh.entries[fp]; ok {
		if e.version == version {
			sh.moveToFront(e)
			sh.mu.Unlock()
			c.hits.Inc()
			return e.verdict, true
		}
		sh.unlink(e)
		delete(sh.entries, fp)
		sh.mu.Unlock()
		c.staleDrops.Inc()
		c.size.Add(-1)
		c.misses.Inc()
		return nil, false
	}
	sh.mu.Unlock()
	c.misses.Inc()
	return nil, false
}

// Put inserts (or replaces) the verdict for (fp, version), evicting the
// least-recently-used entry when the shard is full. No-op on nil.
func (c *VerdictCache) Put(fp, version uint64, v *core.Verdict) {
	if c == nil {
		return
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	evicted, grew := sh.insert(fp, version, v)
	sh.mu.Unlock()
	if evicted {
		c.evictions.Inc()
		c.size.Add(-1)
	}
	if grew {
		c.size.Add(1)
	}
}

// Do returns the verdict for (fp, version), evaluating via compute on a
// miss. cached reports whether the result came from the cache or from an
// in-flight evaluation started by another goroutine (single-flight); when
// false, this call ran compute itself and inserted the result.
//
// On a nil cache, Do simply runs compute.
func (c *VerdictCache) Do(fp, version uint64, compute func() *core.Verdict) (v *core.Verdict, cached bool) {
	if c == nil {
		return compute(), false
	}
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	if e, ok := sh.entries[fp]; ok {
		if e.version == version {
			sh.moveToFront(e)
			sh.mu.Unlock()
			c.hits.Inc()
			return e.verdict, true
		}
		// Cached under another snapshot version: a later version after a
		// swap, or a newer failed version after a rollback. Either way the
		// entry must never be served at this version — drop it now.
		sh.unlink(e)
		delete(sh.entries, fp)
		c.staleDrops.Inc()
		c.size.Add(-1)
	}
	if call, ok := sh.inflight[fp]; ok && call.version == version {
		call.waiters++
		sh.mu.Unlock()
		<-call.done
		c.coalesced.Inc()
		return call.verdict, true
	}
	// An in-flight call for the same fingerprint at a *different* version
	// (a rebuild raced the lookup) is left alone: this goroutine evaluates
	// unshared rather than serve a cross-version result.
	call := &inflightCall{version: version, done: make(chan struct{})}
	register := sh.inflight[fp] == nil
	if register {
		sh.inflight[fp] = call
	}
	sh.mu.Unlock()
	c.misses.Inc()

	defer func() {
		// Publish before unparking waiters even if compute panicked (the
		// verdict is then nil and the panic propagates to this caller only
		// after waiters are released).
		sh.mu.Lock()
		if register && sh.inflight[fp] == call {
			delete(sh.inflight, fp)
		}
		var evicted, grew bool
		if call.verdict != nil {
			evicted, grew = sh.insert(fp, version, call.verdict)
		}
		sh.mu.Unlock()
		if evicted {
			c.evictions.Inc()
			c.size.Add(-1)
		}
		if grew {
			c.size.Add(1)
		}
		close(call.done)
	}()
	call.verdict = compute()
	return call.verdict, false
}

// insert adds or replaces the entry for fp under sh.mu. It reports whether
// an LRU eviction occurred and whether the entry count grew.
func (sh *cacheShard) insert(fp, version uint64, v *core.Verdict) (evicted, grew bool) {
	if e, ok := sh.entries[fp]; ok {
		e.version, e.verdict = version, v
		sh.moveToFront(e)
		return false, false
	}
	if len(sh.entries) >= sh.cap {
		lru := sh.tail
		sh.unlink(lru)
		delete(sh.entries, lru.fp)
		evicted = true
	}
	e := &cacheEntry{fp: fp, version: version, verdict: v}
	sh.entries[fp] = e
	sh.pushFront(e)
	return evicted, true
}

func (sh *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *cacheEntry) {
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

func (sh *cacheShard) moveToFront(e *cacheEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
