package chimera_test

import (
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/experiments"
	"repro/internal/obs"
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
