package serve

import (
	"context"
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

// TestSnapshotApplyCachedEquivalence is the tentpole equivalence property:
// across interleaved rulebase mutations, cached, uncached and batch-inverted
// classification produce byte-equal verdicts (same Explain rendering), and
// repeat traffic under a stable version is served from cache.
func TestSnapshotApplyCachedEquivalence(t *testing.T) {
	const seed = 31
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 30})
	rb := buildPropertyRulebase(t, cat, seed)
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg, Cache: CacheConfig{Capacity: 4096}})
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 120, Epoch: 1})

	checkRound := func(round int) {
		snap := eng.Acquire()
		// Uncached oracle built fresh from the same rulebase state.
		oracle := core.NewIndexedExecutor(rb.Active(
			core.Whitelist, core.Blacklist, core.AttrExists, core.AttrValue,
			core.TypeRestrict))
		batch := snap.ApplyBatchCached(items, 3)
		for pass := 0; pass < 2; pass++ { // pass 1 serves from cache
			for i, it := range items {
				want := oracle.Apply(it)
				got := snap.ApplyCached(it)
				if !core.VerdictsEqual(got, want) || got.Explain() != want.Explain() {
					t.Fatalf("round %d pass %d: cached verdict diverges on %q", round, pass, it.Title())
				}
				if batch[i].Explain() != want.Explain() {
					t.Fatalf("round %d: batch-cached verdict diverges on %q", round, it.Title())
				}
			}
		}
	}

	checkRound(0)
	active := rb.Active()
	for round := 1; round <= 4; round++ {
		// Interleave mutations: disable a stripe, re-enable the previous one,
		// churn confidences — each bumps the version under the live cache.
		for i, r := range active {
			switch (i + round) % 5 {
			case 0:
				_ = rb.Disable(r.ID, "prop", "cache equivalence")
			case 1:
				_ = rb.Enable(r.ID, "prop", "cache equivalence")
			case 2:
				_ = rb.UpdateConfidence(r.ID, 0.5+float64((i+round)%50)/100, "prop")
			}
		}
		checkRound(round)
	}
	st := eng.Cache().Stats()
	if st.Hits == 0 {
		t.Fatal("repeat passes under a stable version never hit the cache")
	}
	if st.StaleDrops == 0 {
		t.Fatal("version churn never dropped a stale entry")
	}
}

// TestCacheDegradedRollbackSafety pins the degraded-mode rule: an engine
// rolled back to its last good snapshot must never serve verdicts cached
// under the failed newer version — in either direction.
func TestCacheDegradedRollbackSafety(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 5, NumTypes: 20})
	rb := buildPropertyRulebase(t, cat, 5)
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg, Cache: CacheConfig{Capacity: 256}})
	it := cat.GenerateBatch(catalog.BatchSpec{Size: 1, Epoch: 0})[0]

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

	// Simulate verdicts that made it into the cache under the failed newer
	// version (e.g. from a racing Acquire on another shard replica before
	// the fault landed): a poisoned sentinel the rollback must never serve.
	poisoned := &core.Verdict{}
	eng.Cache().Put(it.Fingerprint(), rb.Version(), poisoned)

	got := stale.ApplyCached(it)
	if got == poisoned {
		t.Fatal("rolled-back snapshot served a verdict cached under the failed newer version")
	}
	if got.Explain() != want {
		t.Fatalf("degraded verdict diverges from the last good snapshot's:\n%s\nvs\n%s", got.Explain(), want)
	}
	if st := eng.Cache().Stats(); st.StaleDrops == 0 {
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
	if v := fresh.ApplyCached(it); v == poisoned {
		t.Fatal("recovered snapshot served the poisoned verdict")
	}
}

// TestShardedTierSharesOneCache exercises the tier's verdict cache end to end
// through scatter-gather: every shard reads and fills the one cache (sized
// Capacity × Shards), repeat submissions hit it, and its counters land in
// the primary registry.
func TestShardedTierSharesOneCache(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 11, NumTypes: 20})
	rb := buildPropertyRulebase(t, cat, 11)
	srv := NewShardedServer(rb, func(ctx context.Context, snap *Snapshot, it *catalog.Item) string {
		return snap.ApplyCached(it).Explain()
	}, ShardedOptions{
		Shards: 3, Workers: 2, QueueDepth: 64,
		Obs:   obs.NewRegistry(),
		Cache: CacheConfig{Capacity: 512},
	})
	defer srv.Close()

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 90, Epoch: 0})
	oracle := BuildSnapshot(rb, obs.NewRegistry())
	for round := 0; round < 3; round++ {
		tk, err := srv.Submit(items)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		res := tk.Wait()
		if res.Err() != nil {
			t.Fatalf("gather: %v", res.Err())
		}
		for i, it := range items {
			if want := oracle.Apply(it).Explain(); res.Results[i] != want {
				t.Fatalf("round %d: cached sharded verdict diverges on %q", round, it.Title())
			}
		}
	}
	st := srv.CacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("tier cache stats = %+v, want both misses (round 1) and hits (rounds 2-3)", st)
	}
	if st.Capacity != 3*512 {
		t.Fatalf("tier capacity = %d, want %d", st.Capacity, 3*512)
	}
	if st != srv.Engine().Cache().Stats() {
		t.Fatalf("tier stats %+v are not the engine cache's %+v", st, srv.Engine().Cache().Stats())
	}
	if hits := srv.Registry().Counter(MetricCacheHits).Value(); hits != st.Hits {
		t.Fatalf("primary registry hits %d != cache stats %d", hits, st.Hits)
	}
	for i := 0; i < srv.Shards(); i++ {
		if n := srv.ShardRegistry(i).Counter(MetricCacheHits).Value() + srv.ShardRegistry(i).Counter(MetricCacheMisses).Value(); n != 0 {
			t.Fatalf("shard %d's private registry counted %d cache lookups — a second cache exists", i, n)
		}
	}
}
