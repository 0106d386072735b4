package chimera_test

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestVotingMasterMatchesReferenceOnE1 runs E1's combined configuration (its
// catalog shape, seed rules, vote threshold and one round of analyst repair)
// at a reduced size and checks every Classify and ProcessBatch decision
// against the reference Voting Master.
func TestVotingMasterMatchesReferenceOnE1(t *testing.T) {
	const seed = 5
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 60, ZipfS: 1.3})
	train := cat.LabeledData(3000)
	test := cat.GenerateBatch(catalog.BatchSpec{Size: 1200, Epoch: 1})
	p := chimera.New(chimera.Config{Seed: seed + 11, Workers: 8, VoteThreshold: 0.62, Obs: obs.NewRegistry()})
	p.Train(train)
	if err := experiments.SeedRules(cat, p.Rules, "ana"); err != nil {
		t.Fatal(err)
	}
	check := func(round string) {
		t.Helper()
		want := chimera.ReferenceDecisions(p, test)
		res := p.ProcessBatch(test)
		reasons := map[string]int{}
		for i, it := range test {
			if d := p.Classify(it); !reflect.DeepEqual(d, want[i]) {
				t.Fatalf("%s: Classify item %d (%q) = %+v, reference %+v", round, i, it.Title(), d, want[i])
			}
			if d := res.Decisions[i]; !reflect.DeepEqual(d, want[i]) {
				t.Fatalf("%s: ProcessBatch item %d (%q) = %+v, reference %+v", round, i, it.Title(), d, want[i])
			}
			reasons[want[i].Reason]++
		}
		for _, r := range []string{"rules", "ensemble", "combined", "low-confidence"} {
			if reasons[r] == 0 {
				t.Errorf("%s: no decision with reason %q (%v): the world no longer exercises it", round, r, reasons)
			}
		}
	}
	check("seed rules")
	if _, err := p.EvaluateAndImprove(p.ProcessBatch(test)); err != nil {
		t.Fatal(err)
	}
	check("after repair")
}

// TestCachedDecisionsEqualUncachedOnE1 runs E1's combined configuration on
// two equal pipelines, one with a decision cache and one without, and checks
// that Classify, ProcessBatch and the serving tier return equal decisions,
// field for field, on cold and warm passes — and again after a rule change
// and a retrain, which must invalidate the cached entries, not serve them.
func TestCachedDecisionsEqualUncachedOnE1(t *testing.T) {
	const seed = 5
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 60, ZipfS: 1.3})
	train := cat.LabeledData(3000)
	test := cat.GenerateBatch(catalog.BatchSpec{Size: 600, Epoch: 1})
	build := func(cache int) *chimera.Pipeline {
		p := chimera.New(chimera.Config{Seed: seed + 11, Workers: 4, VoteThreshold: 0.62, CacheCapacity: cache, Obs: obs.NewRegistry()})
		p.Train(train)
		if err := experiments.SeedRules(cat, p.Rules, "ana"); err != nil {
			t.Fatal(err)
		}
		return p
	}
	cached, plain := build(4096), build(0)
	tier := cached.NewShardedServer(serve.ShardedOptions{Shards: 3, Obs: obs.NewRegistry()}, nil)
	defer tier.Close()

	check := func(round string) {
		t.Helper()
		want := plain.ProcessBatch(test).Decisions
		for pass := 0; pass < 2; pass++ {
			res := cached.ProcessBatch(test)
			tk, err := tier.Submit(test)
			if err != nil {
				t.Fatal(err)
			}
			g := tk.Wait()
			if g.Err() != nil {
				t.Fatal(g.Err())
			}
			for i, it := range test {
				if d := cached.Classify(it); !reflect.DeepEqual(d, want[i]) {
					t.Fatalf("%s pass %d: cached Classify item %d = %+v, uncached %+v", round, pass, i, d, want[i])
				}
				if d := res.Decisions[i]; !reflect.DeepEqual(d, want[i]) {
					t.Fatalf("%s pass %d: cached ProcessBatch item %d = %+v, uncached %+v", round, pass, i, d, want[i])
				}
				if d := g.Results[i]; !reflect.DeepEqual(d, want[i]) {
					t.Fatalf("%s pass %d: tier item %d = %+v, uncached %+v", round, pass, i, d, want[i])
				}
			}
		}
	}
	check("seed rules")
	hits := cached.CacheStats().Hits
	if hits == 0 {
		t.Fatal("warm passes never hit the decision cache")
	}
	for _, p := range []*chimera.Pipeline{cached, plain} {
		r := p.Rules.Active()[3]
		if err := p.Rules.Disable(r.ID, "ana", "cache equivalence"); err != nil {
			t.Fatal(err)
		}
	}
	check("after a disable")
	extra := cat.LabeledData(500)
	cached.Train(extra)
	plain.Train(extra)
	check("after a retrain")
	if st := cached.CacheStats(); st.StaleDrops == 0 || st.Hits <= hits {
		t.Fatalf("cache stats %+v: a rule change and a retrain must drop stale entries and hit again", st)
	}
}
