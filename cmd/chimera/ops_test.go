package main

import (
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestOpsSnapshotReadsServingEngine: with a tier serving, /snapshot reports
// the rulebase state the tier serves, its rules and the health of the rules
// tier traffic applied, and /healthz the same version without reading it
// from the shard statuses.
func TestOpsSnapshotReadsServingEngine(t *testing.T) {
	p := repro.NewPipeline(repro.PipelineConfig{Seed: 3, Obs: obs.NewRegistry()})
	add := func(pattern, typ string) string {
		t.Helper()
		r, err := repro.NewWhitelist(pattern, typ)
		if err != nil {
			t.Fatal(err)
		}
		id, err := p.Rules.Add(r, "ana")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	first := add("rings?", "rings")
	tier := p.NewShardedServer(repro.ShardedOptions{Shards: 2}, nil)
	defer tier.Close()
	second := add("motor oil", "motor oil")
	for deadline := time.Now().Add(5 * time.Second); tier.Engine().Current().Version() != p.Rules.Version(); {
		if time.Now().After(deadline) {
			t.Fatalf("tier stuck at version %d, rulebase at %d", tier.Engine().Current().Version(), p.Rules.Version())
		}
		time.Sleep(time.Millisecond)
	}
	tk, err := tier.Submit([]*repro.Item{{ID: "ring-1", Attrs: map[string]string{"Title": "sterling silver ring"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait().Err(); err != nil {
		t.Fatal(err)
	}

	ops := opsOptions(p)
	info := ops.Snapshot()
	if info.Version != p.Rules.Version() || info.ActiveRules != 2 ||
		!slices.Contains(info.RuleIDs, first) || !slices.Contains(info.RuleIDs, second) {
		t.Fatalf("/snapshot at version %d with rules %v; rulebase at %d with %s and %s",
			info.Version, info.RuleIDs, p.Rules.Version(), first, second)
	}
	if h, _ := info.RuleHealth.([]core.RuleHealth); len(h) != 2 {
		t.Fatalf("/snapshot rule health covers %d rules, want 2", len(h))
	}
	if st := ops.Health(); st.SnapshotVersion != p.Rules.Version() || st.Degraded {
		t.Fatalf("/healthz at version %d (degraded %v), rulebase at %d", st.SnapshotVersion, st.Degraded, p.Rules.Version())
	}
}
