package serve

import (
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// buildPropertyRulebase seeds a rulebase with a mixed-kind rule population
// derived from the catalog's type vocabulary, plus some disabled/retired
// rules so snapshots must respect lifecycle status.
func buildPropertyRulebase(t testing.TB, cat *catalog.Catalog, seed uint64) *core.Rulebase {
	rb := core.NewRulebase()
	types := cat.Types()
	for i, ty := range types {
		for j, h := range ty.HeadTerms {
			r, err := core.NewWhitelist(h.Text, ty.Name)
			if err != nil {
				continue
			}
			id, err := rb.Add(r, "prop")
			if err != nil {
				t.Fatalf("add: %v", err)
			}
			// Exercise status filtering: some rules are disabled, some
			// disabled-then-retired; snapshots must exclude both.
			switch (uint64(i*7+j) + seed) % 9 {
			case 3:
				_ = rb.Disable(id, "prop", "property test")
			case 5:
				_ = rb.Disable(id, "prop", "property test")
				_ = rb.Retire(id, "prop", "property test")
			}
		}
		if len(ty.Synonyms) > 0 && i%3 == 0 {
			if r, err := core.NewBlacklist(ty.Synonyms[0].Text, types[(i+1)%len(types)].Name); err == nil {
				_, _ = rb.Add(r, "prop")
			}
		}
		if i%5 == 0 && len(ty.HeadTerms) > 1 {
			if r, err := core.NewGate(ty.HeadTerms[1].Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "prop")
			}
		}
		if i%11 == 0 {
			if r, err := core.NewFilter(ty.Name); err == nil {
				_, _ = rb.Add(r, "prop")
			}
		}
	}
	return rb
}

// TestSnapshotVerdictEquivalenceProperty: for any generated catalog batch
// and rule population, the snapshot's executors produce verdicts
// byte-identical (same final types AND same evidence fingerprint) to fresh
// IndexedExecutors built directly over the same active rules — the serve
// layer may never change what the system says, only how fast it says it.
func TestSnapshotVerdictEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 25})
		rb := buildPropertyRulebase(t, cat, seed)
		snap := BuildSnapshot(rb, obs.NewRegistry())

		freshRules := core.NewIndexedExecutor(rb.Active(
			core.Whitelist, core.Blacklist, core.AttrExists, core.AttrValue,
			core.TypeRestrict))
		freshGate := core.NewIndexedExecutor(rb.Active(core.Gate))

		items := cat.GenerateBatch(catalog.BatchSpec{Size: 80, Epoch: int(seed % 3)})
		// The batch path must agree with the fresh per-item
		// executors too — the snapshot may never change what the system
		// says, on either path.
		batchRules := snap.ApplyBatch(items, 3)
		batchGate := snap.GateApplyBatch(items, 3)
		for i, it := range items {
			if !core.VerdictsEqual(snap.Rules().Apply(it), freshRules.Apply(it)) {
				t.Logf("seed %d: classifier verdicts diverge on %q", seed, it.Title())
				return false
			}
			if !core.VerdictsEqual(snap.Gate().Apply(it), freshGate.Apply(it)) {
				t.Logf("seed %d: gate verdicts diverge on %q", seed, it.Title())
				return false
			}
			if !core.VerdictsEqual(batchRules[i], freshRules.Apply(it)) {
				t.Logf("seed %d: batch classifier verdict diverges on %q", seed, it.Title())
				return false
			}
			if !core.VerdictsEqual(batchGate[i], freshGate.Apply(it)) {
				t.Logf("seed %d: batch gate verdict diverges on %q", seed, it.Title())
				return false
			}
		}

		// The filter table must be exactly the active Filter rules.
		want := map[string]string{}
		for _, r := range rb.Active(core.Filter) {
			want[r.TargetType] = r.ID
		}
		if len(want) != len(snap.Filters()) {
			return false
		}
		for ty, id := range want {
			if snap.Filters()[ty] != id {
				return false
			}
		}
		return snap.Version() == rb.Version()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotActiveIDsMatchRulebase: the snapshot's traceability fingerprint
// (sorted active IDs) is exactly the rulebase's active set at that version.
func TestSnapshotActiveIDsMatchRulebase(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 11, NumTypes: 20})
	rb := buildPropertyRulebase(t, cat, 11)
	snap := BuildSnapshot(rb, obs.NewRegistry())

	want := map[string]bool{}
	for _, r := range rb.Active() {
		want[r.ID] = true
	}
	got := snap.ActiveIDs()
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d active IDs, rulebase has %d", len(got), len(want))
	}
	for i, id := range got {
		if !want[id] {
			t.Fatalf("snapshot lists %s which is not active", id)
		}
		if i > 0 && got[i-1] >= id {
			t.Fatalf("ActiveIDs not strictly sorted at %d: %q >= %q", i, got[i-1], id)
		}
	}
}
