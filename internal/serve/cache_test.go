package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

func testCache(t *testing.T, capacity int) (*VerdictCache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := NewVerdictCache(CacheConfig{Capacity: capacity}, reg)
	if c == nil {
		t.Fatalf("NewVerdictCache(%d) = nil", capacity)
	}
	return c, reg
}

func TestVerdictCacheDisabled(t *testing.T) {
	if c := NewVerdictCache(CacheConfig{}, obs.NewRegistry()); c != nil {
		t.Fatal("zero capacity must disable the cache")
	}
	// A nil cache is a valid always-miss cache.
	var c *VerdictCache
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("nil cache Get must miss")
	}
	c.Put(1, 1, &core.Verdict{})
	ran := false
	v, cached := c.Do(1, 1, func() *core.Verdict { ran = true; return &core.Verdict{} })
	if !ran || cached || v == nil {
		t.Fatalf("nil cache Do must compute: ran=%v cached=%v", ran, cached)
	}
	if c.Stats() != (CacheStats{}) || c.Len() != 0 || c.Capacity() != 0 {
		t.Fatal("nil cache stats must be zero")
	}
}

func TestVerdictCacheLRUEviction(t *testing.T) {
	// 3 entries per segment; every fingerprint below is a multiple of the
	// segment count, so all land in segment 0 and its LRU order is global.
	c, _ := testCache(t, 3*DefaultCacheShards)
	fp := func(i int) uint64 { return uint64(i * DefaultCacheShards) }
	vs := make([]*core.Verdict, 5)
	for i := range vs {
		vs[i] = &core.Verdict{}
		c.Put(fp(i), 1, vs[i])
	}
	// Segment capacity 3: fingerprints 0 and 1 must have been evicted, 2..4
	// resident.
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(fp(i), 1); ok {
			t.Fatalf("fp %d should be evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if v, ok := c.Get(fp(i), 1); !ok || v != vs[i] {
			t.Fatalf("fp %d should be resident with its verdict", i)
		}
	}
	// Touch 2 (LRU -> MRU), insert a new entry: 3 is now the eviction victim.
	if _, ok := c.Get(fp(2), 1); !ok {
		t.Fatal("fp 2 should be resident")
	}
	c.Put(fp(99), 1, &core.Verdict{})
	if _, ok := c.Get(fp(2), 1); !ok {
		t.Fatal("recently used fp 2 must survive the eviction")
	}
	if _, ok := c.Get(fp(3), 1); ok {
		t.Fatal("LRU fp 3 should have been evicted")
	}
	if st := c.Stats(); st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
}

func TestVerdictCacheStaleVersionDrop(t *testing.T) {
	c, _ := testCache(t, 8)
	v2 := &core.Verdict{}
	c.Put(7, 2, v2)
	// Looking the entry up at any other version — older (rollback) or newer
	// (post-swap) — must drop it, not serve it.
	if _, ok := c.Get(7, 1); ok {
		t.Fatal("version-2 entry served at version 1")
	}
	if st := c.Stats(); st.StaleDrops != 1 || st.Size != 0 {
		t.Fatalf("stats after stale drop = %+v, want 1 drop, size 0", st)
	}
	// The drop is physical: a repeat lookup at the entry's own version misses.
	if _, ok := c.Get(7, 2); ok {
		t.Fatal("stale-dropped entry still resident")
	}

	c.Put(7, 2, v2)
	ran := false
	v, cached := c.Do(7, 3, func() *core.Verdict { ran = true; return &core.Verdict{} })
	if !ran || cached || v == v2 {
		t.Fatal("Do at a newer version must re-evaluate, not serve the stale verdict")
	}
	if st := c.Stats(); st.StaleDrops != 2 {
		t.Fatalf("staleDrops = %d, want 2", st.StaleDrops)
	}
	// One fingerprint never accretes entries across versions.
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1 (replace, not accrete)", c.Len())
	}
}

// inflightWaiters peeks at the single-flight slot's parked-lookup count (test
// hook; same-package access under the shard lock).
func inflightWaiters(c *VerdictCache, fp uint64) int {
	sh := c.shards[fp&c.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if call, ok := sh.inflight[fp]; ok {
		return call.waiters
	}
	return 0
}

func TestVerdictCacheSingleFlight(t *testing.T) {
	c, _ := testCache(t, 8)
	const followers = 7
	var computes int
	gate := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	var leaderV *core.Verdict
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderV, _ = c.Do(42, 1, func() *core.Verdict {
			computes++ // only the leader runs this; -race verifies
			close(started)
			<-gate
			return &core.Verdict{}
		})
	}()
	<-started // the leader is parked inside compute: followers must coalesce

	results := make([]*core.Verdict, followers)
	cachedFlags := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], cachedFlags[i] = c.Do(42, 1, func() *core.Verdict {
				t.Error("follower must not compute")
				return &core.Verdict{}
			})
		}(i)
	}
	// Wait until every follower is parked on the in-flight slot, then let the
	// leader's evaluation finish.
	for deadline := time.Now().Add(5 * time.Second); inflightWaiters(c, 42) < followers; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers parked", inflightWaiters(c, 42), followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1 (single-flight)", computes)
	}
	for i := 0; i < followers; i++ {
		if !cachedFlags[i] {
			t.Fatalf("follower %d reported an uncached result", i)
		}
		if results[i] != leaderV {
			t.Fatal("coalesced callers must share the leader's verdict")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != followers || st.Hits != 0 {
		t.Fatalf("misses=%d coalesced=%d hits=%d, want 1/%d/0", st.Misses, st.Coalesced, st.Hits, followers)
	}
	// The result was inserted: the next lookup is a plain hit.
	if _, cached := c.Do(42, 1, func() *core.Verdict { t.Fatal("must not recompute"); return nil }); !cached {
		t.Fatal("post-flight lookup should hit")
	}
}

// TestVerdictCacheCounterPartition pins the accounting contract: every Do
// resolves as exactly one of hit, miss, or coalesced.
func TestVerdictCacheCounterPartition(t *testing.T) {
	c, _ := testCache(t, 16)
	const lookups = 500
	for i := 0; i < lookups; i++ {
		fp := uint64(i % 23)
		ver := uint64(1 + i%3) // version churn forces stale drops too
		c.Do(fp, ver, func() *core.Verdict { return &core.Verdict{} })
	}
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced != lookups {
		t.Fatalf("hits(%d)+misses(%d)+coalesced(%d) != %d lookups",
			st.Hits, st.Misses, st.Coalesced, lookups)
	}
	if st.Size > c.Capacity() {
		t.Fatalf("size %d exceeds capacity %d", st.Size, c.Capacity())
	}
}

// TestCacheDegradedRollbackSafety pins the degraded-mode rule: an engine
// rolled back to its last good snapshot must never be served results cached
// under the failed newer version — in either direction. The cache is keyed
// the way a handler keys it: by the snapshot's rulebase state.
func TestCacheDegradedRollbackSafety(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 5, NumTypes: 20})
	rb := buildPropertyRulebase(t, cat, 5)
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	cache := NewCache[uint64, *core.Verdict](CacheConfig{Capacity: 256}, reg)
	it := cat.GenerateBatch(catalog.BatchSpec{Size: 1, Epoch: 0})[0]
	cached := func(snap *Snapshot) *core.Verdict {
		v, _ := cache.Do(it.Fingerprint(), snap.Version(), func() *core.Verdict { return snap.Apply(it) })
		return v
	}

	good := eng.Acquire()
	want := good.Apply(it).Explain()

	// Fail the next rebuild: the engine keeps serving the last good snapshot.
	eng.SetRebuildFault(func() (stall time.Duration, err error) {
		return 0, fmt.Errorf("injected rebuild failure")
	})
	_ = rb.UpdateConfidence(rb.Active()[0].ID, 0.77, "prop") // version bump
	stale := eng.Acquire()
	if !eng.Degraded() || stale.Version() != good.Version() {
		t.Fatalf("engine should be degraded on the good snapshot (degraded=%v v=%d/%d)",
			eng.Degraded(), stale.Version(), good.Version())
	}

	// Simulate a verdict that made it into the cache under the failed newer
	// state (e.g. from a racing Acquire on another replica before the fault
	// landed): a poisoned sentinel the rollback must never serve.
	poisoned := &core.Verdict{}
	cache.Put(it.Fingerprint(), rb.Version(), poisoned)

	got := cached(stale)
	if got == poisoned {
		t.Fatal("rolled-back snapshot served a verdict cached under the failed newer version")
	}
	if got.Explain() != want {
		t.Fatalf("degraded verdict diverges from the last good snapshot's:\n%s\nvs\n%s", got.Explain(), want)
	}
	if st := cache.Stats(); st.StaleDrops == 0 {
		t.Fatal("the poisoned entry should have been dropped as stale")
	}

	// Recovery: clear the fault, rebuild, and verify the newer version now
	// re-evaluates (the pre-failure entry for the old version is dropped the
	// same way, never served across the bump).
	eng.SetRebuildFault(nil)
	fresh := eng.Acquire()
	if eng.Degraded() || fresh.Version() == good.Version() {
		t.Fatal("engine should have recovered onto the new version")
	}
	if v := cached(fresh); v == poisoned {
		t.Fatal("recovered snapshot served the poisoned verdict")
	}
}

// TestCacheHitRacesReplacement: a Put on a resident fingerprint replaces the
// entry's value in place, so a concurrent hit must read the value under the
// shard lock. Run under -race.
func TestCacheHitRacesReplacement(t *testing.T) {
	c, _ := testCache(t, 8)
	a, b := &core.Verdict{}, &core.Verdict{}
	c.Put(1, 7, a)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if i%2 == 0 {
				c.Put(1, 7, b)
			} else {
				c.Put(1, 7, a)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if v, ok := c.Get(1, 7); !ok || (v != a && v != b) {
				t.Errorf("hit %d: got %p, %v", i, v, ok)
				return
			}
			if v, cached := c.Do(1, 7, func() *core.Verdict { return a }); !cached || (v != a && v != b) {
				t.Errorf("Do %d: got %p, cached %v", i, v, cached)
				return
			}
		}
	}()
	wg.Wait()
}
