package chimera

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/serve"
)

// uncachedTwin returns the reference a cached path must agree with: a
// pipeline without a decision cache or audit capture, holding a rulebase
// equal to p's (same rule IDs, same version) and sharing p's ensemble.
func uncachedTwin(t *testing.T, p *Pipeline) *Pipeline {
	t.Helper()
	twin := New(Config{Seed: p.cfg.Seed, Obs: obs.NewRegistry(), Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: -1})})
	data, err := json.Marshal(p.Rules)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, twin.Rules); err != nil {
		t.Fatal(err)
	}
	twin.Ensemble = p.Ensemble
	return twin
}

// TestShardedTierSharesOneDecisionCache exercises the tier's decision cache
// end to end through scatter-gather: every shard reads and fills the
// pipeline's one cache (sized Capacity × Shards), repeat submissions hit it
// and equal the uncached reference field for field, and its counters land in
// the primary registry.
func TestShardedTierSharesOneDecisionCache(t *testing.T) {
	cat, p := fixture(t, 11)
	reg := obs.NewRegistry()
	srv := p.NewShardedServer(serve.ShardedOptions{
		Shards: 3, Workers: 2, QueueDepth: 64, Obs: reg,
		Cache: serve.CacheConfig{Capacity: 512},
	}, nil)
	defer srv.Close()
	ref := uncachedTwin(t, p)

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 90, Epoch: 1})
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
			if want := ref.Classify(it); !reflect.DeepEqual(res.Results[i], want) {
				t.Fatalf("round %d item %d: cached %+v, reference %+v", round, i, res.Results[i], want)
			}
		}
	}
	st := p.CacheStats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("tier cache stats = %+v, want both misses (round 1) and hits (rounds 2-3)", st)
	}
	if st.Capacity != 3*512 {
		t.Fatalf("tier capacity = %d, want %d", st.Capacity, 3*512)
	}
	if hits := reg.Counter(serve.MetricCacheHits).Value(); hits != st.Hits {
		t.Fatalf("primary registry hits %d != cache stats %d", hits, st.Hits)
	}
	// A second tier on the same pipeline shares the one cache: its first
	// round is all hits.
	srv2 := p.NewShardedServer(serve.ShardedOptions{Shards: 2, Obs: reg, Cache: serve.CacheConfig{Capacity: 8}}, nil)
	defer srv2.Close()
	before := p.CacheStats()
	tk, err := srv2.Submit(items)
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Err() != nil {
		t.Fatal(res.Err())
	}
	if after := p.CacheStats(); after.Capacity != st.Capacity || after.Hits-before.Hits != int64(len(items)) {
		t.Fatalf("second tier: stats %+v after %+v, want %d more hits in the same cache", after, before, len(items))
	}
}

// TestDecisionEvidenceOwnership: a caller that edits the Evidence slice of a
// decision it was handed — on a miss or on a hit — must not change what the
// next hit serves, through the tier, ProcessBatch and Classify alike.
func TestDecisionEvidenceOwnership(t *testing.T) {
	cat, p := fixture(t, 23)
	p.cache.Store(serve.NewCache[stamp, Decision](serve.CacheConfig{Capacity: 1024}, p.Obs))
	ref := uncachedTwin(t, p)
	var items []*catalog.Item
	for _, it := range cat.GenerateBatch(catalog.BatchSpec{Size: 400, Epoch: 1}) {
		if len(ref.Classify(it).Evidence) > 0 {
			items = append(items, it)
		}
	}
	if len(items) < 5 {
		t.Fatalf("fixture: only %d items carry rule evidence", len(items))
	}
	tamper := func(ds []Decision) {
		for i := range ds {
			for j := range ds[i].Evidence {
				ds[i].Evidence[j] = "tampered"
			}
		}
	}
	check := func(path string, ds []Decision) {
		t.Helper()
		for i, it := range items {
			if want := ref.Classify(it); !reflect.DeepEqual(ds[i], want) {
				t.Fatalf("%s item %d: %+v, reference %+v", path, i, ds[i], want)
			}
		}
	}

	srv := p.NewShardedServer(serve.ShardedOptions{Shards: 2, Obs: obs.NewRegistry()}, nil)
	defer srv.Close()
	tier := func() []Decision {
		tk, err := srv.Submit(items)
		if err != nil {
			t.Fatal(err)
		}
		res := tk.Wait()
		if res.Err() != nil {
			t.Fatal(res.Err())
		}
		return res.Results
	}
	classify := func() []Decision {
		out := make([]Decision, len(items))
		for i, it := range items {
			out[i] = p.Classify(it)
		}
		return out
	}
	batch := func() []Decision { return p.ProcessBatch(items).Decisions }
	for round := 0; round < 2; round++ { // round 0 misses on the tier, then hits everywhere
		for _, path := range []struct {
			name string
			run  func() []Decision
		}{{"tier", tier}, {"ProcessBatch", batch}, {"Classify", classify}} {
			ds := path.run()
			check(path.name, ds)
			tamper(ds)
		}
	}
	if st := p.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache stats %+v: the test exercised no hit or no miss", st)
	}
}

// TestRetrainWhileServing is the model-snapshot property under -race: one
// goroutine calls Train in a loop while the tier and ProcessBatch serve.
// Every decision must equal the reference Classify at its recorded model
// generation (the rulebase is unchanged, so its version is fixed), a
// batch must be classified under one generation, and nothing may race.
func TestRetrainWhileServing(t *testing.T) {
	const gens = 4
	cat := catalog.New(catalog.Config{Seed: 31, NumTypes: 30})
	p := New(Config{Seed: 31, Workers: 2, CacheCapacity: 256, Obs: obs.NewRegistry()})
	addFixtureRules(t, p)
	chunks := make([][]*catalog.Item, gens)
	for i := range chunks {
		chunks[i] = cat.LabeledData(300)
	}
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 48, Epoch: 1})

	// refs[g] is an uncached pipeline whose only model was trained on what
	// generation g was: the first g chunks.
	refs := make([]*Pipeline, gens+1)
	for g := 1; g <= gens; g++ {
		refs[g] = uncachedTwin(t, p)
		refs[g].Ensemble = newEnsemble()
		var data []*catalog.Item
		for _, c := range chunks[:g] {
			data = append(data, c...)
		}
		refs[g].Ensemble.Train(data)
	}

	p.Train(chunks[0])
	version := p.Rules.Version()
	srv := p.NewShardedServer(serve.ShardedOptions{Shards: 2, Workers: 2, Obs: p.Obs}, nil)
	defer srv.Close()

	type served struct {
		it *catalog.Item
		d  Decision
	}
	var (
		mu  sync.Mutex
		got []served
	)
	keep := func(its []*catalog.Item, ds []Decision) {
		mu.Lock()
		defer mu.Unlock()
		for i, d := range ds {
			got = append(got, served{its[i], d})
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the tier
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				if n > 0 {
					return
				}
			default:
			}
			tk, err := srv.Submit(items)
			if err != nil {
				t.Error(err)
				return
			}
			res := tk.Wait()
			if res.Err() != nil {
				t.Error(res.Err())
				return
			}
			for _, snap := range res.Snapshots {
				if snap.Version() != version {
					t.Errorf("tier served version %d, want %d", snap.Version(), version)
					return
				}
			}
			keep(items, res.Results)
		}
	}()
	go func() { // ProcessBatch
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				if n > 0 {
					return
				}
			default:
			}
			res := p.ProcessBatch(items)
			if res.SnapshotVersion != version {
				t.Errorf("batch at version %d, want %d", res.SnapshotVersion, version)
				return
			}
			for i, d := range res.Decisions {
				if d.ModelGeneration != res.ModelGeneration {
					t.Errorf("batch at generation %d decided item %d with generation %d", res.ModelGeneration, i, d.ModelGeneration)
					return
				}
			}
			keep(items, res.Decisions)
		}
	}()
	for _, c := range chunks[1:] {
		p.Train(c)
	}
	close(done)
	wg.Wait()

	if g := p.Ensemble.Model().Generation(); g != gens {
		t.Fatalf("final generation %d, want %d", g, gens)
	}
	type key struct {
		it  *catalog.Item
		gen uint64
	}
	wants := map[key]Decision{}
	seen := map[uint64]bool{}
	for _, s := range got {
		g := s.d.ModelGeneration
		if g < 1 || g > gens {
			t.Fatalf("decision with generation %d, outside 1..%d", g, gens)
		}
		seen[g] = true
		want, ok := wants[key{s.it, g}]
		if !ok {
			want = refs[g].Classify(s.it)
			want.ModelGeneration = g
			wants[key{s.it, g}] = want
		}
		if !reflect.DeepEqual(s.d, want) {
			t.Fatalf("item %s at generation %d: %+v, reference %+v", s.it.ID, g, s.d, want)
		}
	}
	t.Logf("%d decisions checked over generations %v", len(got), seen)
}
