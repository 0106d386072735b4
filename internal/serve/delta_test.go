package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/randx"
)

// deltaRule draws one rule of any kind from the catalog vocabulary, so random
// rulebases exercise every posting list: title tokens, attribute names and
// the unconditional scan list.
func deltaRule(rng *randx.Rand, types []*catalog.TypeSpec) *core.Rule {
	ty, other := types[rng.Intn(len(types))], types[rng.Intn(len(types))]
	head := ty.Name
	if len(ty.HeadTerms) > 0 {
		head = ty.HeadTerms[rng.Intn(len(ty.HeadTerms))].Text
	}
	var r *core.Rule
	var err error
	switch k := rng.Intn(20); {
	case k < 8:
		r, err = core.NewWhitelist(head, ty.Name)
	case k < 10 && len(ty.Modifiers) > 0:
		r, err = core.NewWhitelist(rng.PickString(ty.Modifiers)+".*"+head, ty.Name)
	case k < 12:
		r, err = core.NewBlacklist(head, other.Name)
	case k < 14:
		r, err = core.NewGate(head, ty.Name)
	case k < 16:
		r, err = core.NewAttrExists("Brand Name", ty.Name)
	case k < 17 && len(ty.Brands) > 0:
		r, err = core.NewAttrValue("Brand Name", rng.PickString(ty.Brands), []string{ty.Name, other.Name})
	case k < 18:
		r, err = core.NewTypeRestrict(head, []string{ty.Name, other.Name})
	case k < 19:
		r, err = core.NewWhitelist(`\w+ `+head, ty.Name)
		if rng.Bool(0.3) {
			r, err = core.NewWhitelist(`\w+`, ty.Name) // no witness: the scan list
		}
	default:
		r, err = core.NewFilter(ty.Name)
	}
	if err != nil {
		panic(err)
	}
	return r
}

// stages splits active rules the way a snapshot does.
func stages(active []*core.Rule) (gate, class []*core.Rule) {
	for _, r := range active {
		switch r.Kind {
		case core.Gate:
			gate = append(gate, r)
		case core.Filter:
		default:
			class = append(class, r)
		}
	}
	return gate, class
}

// checkDeltaEqualsFull compares the engine's snapshot with a cold
// BuildSnapshot into a separate registry and with the sequential oracle:
// version, active IDs, filters, every item's final types and Explain() bytes
// on both paths of both stages, the Health rule set, and that the engine's
// executions move exactly the registry's per-rule fired series of the rules
// that matched.
func checkDeltaEqualsFull(t *testing.T, eng *Engine, items []*catalog.Item, step string) {
	t.Helper()
	rb, reg := eng.Rulebase(), eng.Registry()
	snap := eng.Acquire()
	fresh := BuildSnapshot(rb, obs.NewRegistry())
	if snap.Version() != fresh.Version() || snap.Version() != rb.Version() {
		t.Fatalf("%s: versions engine %d, fresh %d, rulebase %d", step, snap.Version(), fresh.Version(), rb.Version())
	}
	if got, want := snap.ActiveIDs(), fresh.ActiveIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: active IDs differ:\nengine %v\nfresh  %v", step, got, want)
	}
	if got, want := snap.Filters(), fresh.Filters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: filters differ: engine %v, fresh %v", step, got, want)
	}

	_, active := rb.ActiveView()
	gateRules, classRules := stages(active)
	fired := func() map[string]int64 {
		m := map[string]int64{}
		for _, r := range classRules {
			m[r.ID] = reg.Counter(core.MetricRuleFired, "rule", r.ID).Value()
		}
		return m
	}
	before := fired()
	wantFired := map[string]int64{}

	seq, seqGate := core.NewSequentialExecutor(classRules), core.NewSequentialExecutor(gateRules)
	batch, gateBatch := snap.ApplyBatch(items, 2), snap.GateApplyBatch(items, 2)
	freshBatch := fresh.ApplyBatch(items, 2)
	for i, it := range items {
		want := seq.Apply(it)
		for path, v := range map[string]*core.Verdict{
			"Apply": snap.Apply(it), "ApplyBatch": batch[i],
			"fresh Apply": fresh.Apply(it), "fresh ApplyBatch": freshBatch[i],
		} {
			if v.Explain() != want.Explain() || !reflect.DeepEqual(v.FinalTypes(), want.FinalTypes()) {
				t.Fatalf("%s: %s differs from the oracle on %q:\n%s\nwant:\n%s", step, path, it.Title(), v.Explain(), want.Explain())
			}
		}
		wantGate := seqGate.Apply(it).Explain()
		if g, gb := snap.Gate().Apply(it).Explain(), gateBatch[i].Explain(); g != wantGate || gb != wantGate {
			t.Fatalf("%s: gate differs from the oracle on %q:\nApply %s\nbatch %s\nwant  %s", step, it.Title(), g, gb, wantGate)
		}
		for _, r := range classRules {
			if r.Matches(it) {
				wantFired[r.ID] += 2 // snap.Apply and snap.ApplyBatch
			}
		}
	}
	for id, was := range before {
		if got := reg.Counter(core.MetricRuleFired, "rule", id).Value() - was; got != wantFired[id] {
			t.Fatalf("%s: rule %s fired counter moved %d, want %d", step, id, got, wantFired[id])
		}
	}

	var healthIDs, classIDs []string
	for _, h := range snap.Rules().Health(0) {
		healthIDs = append(healthIDs, h.RuleID)
	}
	for _, r := range classRules {
		classIDs = append(classIDs, r.ID)
	}
	sort.Strings(healthIDs)
	sort.Strings(classIDs)
	if len(classIDs) > 0 && !reflect.DeepEqual(healthIDs, classIDs) {
		t.Fatalf("%s: Health covers %v, active classifier rules are %v", step, healthIDs, classIDs)
	}
}

// TestDeltaSnapshotEqualsFullProperty: over random mutation sequences on a
// rulebase of a few hundred mixed-kind rules, the snapshot an engine builds
// from its previous one is indistinguishable from a cold BuildSnapshot and
// from the sequential oracle (checkDeltaEqualsFull). The sequence covers every
// mutation — add, disable, enable, retire, confidence update, replayed
// changes of each kind, a load that rewinds the rulebase — and a retire burst
// that drives the dead slots past the rebuild threshold; both build kinds
// must occur, and the burst must fall back to a full build without an add.
func TestDeltaSnapshotEqualsFullProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		rng := randx.New(seed)
		cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
		types := cat.Types()
		items := cat.GenerateBatch(catalog.BatchSpec{Size: 32, Epoch: 1})

		rb := core.NewRulebase()
		for rb.Len() < 240 {
			if _, err := rb.Add(deltaRule(rng, types), "prop"); err != nil {
				t.Fatal(err)
			}
		}
		reg := obs.NewRegistry()
		eng := NewEngine(rb, EngineOptions{Obs: reg})
		checkDeltaEqualsFull(t, eng, items, "initial")

		var checkpoint []byte
		pick := func() string {
			all := rb.All()
			return all[rng.Intn(len(all))].ID
		}
		replayed := 0
		seen := map[string]int{}
		for step := 0; step < 120; step++ {
			var op string
			var err error
			switch k := rng.Intn(100); {
			case k < 8:
				op = "add"
				_, err = rb.Add(deltaRule(rng, types), "prop")
			case k < 33:
				op = "disable"
				_ = rb.Disable(pick(), "prop", "")
			case k < 55:
				op = "enable"
				_ = rb.Enable(pick(), "prop", "")
			case k < 60:
				op = "retire"
				_ = rb.Retire(pick(), "prop", "")
			case k < 78:
				op = "update"
				err = rb.UpdateConfidence(pick(), rng.Float64(), "prop")
			case k < 95:
				ch := core.Change{Version: rb.Version() + 1, RuleID: pick(), Actor: "replay"}
				switch rng.Intn(5) {
				case 0:
					r := deltaRule(rng, types)
					replayed++
					r.ID = fmt.Sprintf("X%05d", replayed)
					ch.RuleID, ch.Rule = r.ID, r
					ch.Action = "add"
				case 1:
					ch.Action = "disable"
				case 2:
					ch.Action = "enable"
				case 3:
					ch.Action = "retire"
				default:
					ch.Action, ch.Confidence = "update", rng.Float64()
				}
				op = "replay " + ch.Action
				err = rb.ApplyChange(ch)
			default:
				if checkpoint == nil {
					op = "checkpoint"
					checkpoint, err = json.Marshal(rb)
					break
				}
				// A rewinding load, then an add: the add reuses an auto-ID
				// the snapshot before the load gave to a different rule.
				op = "load"
				if err = rb.UnmarshalJSON(checkpoint); err != nil {
					break
				}
				checkpoint = nil
				checkDeltaEqualsFull(t, eng, items, fmt.Sprintf("seed %d step %d load", seed, step))
				_, err = rb.Add(deltaRule(rng, types), "prop")
			}
			if err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			seen[op]++
			checkDeltaEqualsFull(t, eng, items, fmt.Sprintf("seed %d step %d %s", seed, step, op))
		}
		for _, op := range []string{"add", "disable", "enable", "retire", "update", "replay add", "replay disable", "replay update", "load"} {
			if seen[op] == 0 {
				t.Fatalf("seed %d: the sequence never ran %q (ran %v)", seed, op, seen)
			}
		}

		// A rewinding load followed by adds: the adds reuse the auto-IDs the
		// snapshot before the load gave to other rules, with other patterns.
		checkpoint, err := json.Marshal(rb)
		if err != nil {
			t.Fatal(err)
		}
		addFrom := func(phase string, it *catalog.Item) {
			toks := it.TitleTokens()
			r, err := core.NewWhitelist(toks[len(toks)-1], "rewound")
			if err == nil {
				_, err = rb.Add(r, "prop")
			}
			if err != nil {
				t.Fatal(err)
			}
			checkDeltaEqualsFull(t, eng, items, fmt.Sprintf("seed %d %s", seed, phase))
		}
		for i := 0; i < 3; i++ {
			addFrom("add before rewind", items[i])
		}
		if err := rb.UnmarshalJSON(checkpoint); err != nil {
			t.Fatal(err)
		}
		checkDeltaEqualsFull(t, eng, items, fmt.Sprintf("seed %d rewind", seed))
		for i := 0; i < 3; i++ {
			addFrom("add after rewind", items[len(items)-1-i])
		}

		// Retire active classifier rules one by one: the first retires re-slot,
		// and once more than 1/8 of the slots are dead the engine rebuilds.
		fulls := reg.Counter(MetricSnapshotBuilds, "kind", "full")
		deltas := reg.Counter(MetricSnapshotBuilds, "kind", "delta")
		fullsBefore, deltasBefore := fulls.Value(), deltas.Value()
		_, active := rb.ActiveView()
		_, class := stages(active)
		for i, r := range class[:len(class)/4] {
			if err := rb.Retire(r.ID, "prop", "burst"); err != nil {
				t.Fatal(err)
			}
			checkDeltaEqualsFull(t, eng, items, fmt.Sprintf("seed %d burst retire %d", seed, i))
		}
		if fulls.Value() == fullsBefore || deltas.Value() == deltasBefore {
			t.Fatalf("seed %d: retire burst built %d full and %d delta snapshots, want both kinds",
				seed, fulls.Value()-fullsBefore, deltas.Value()-deltasBefore)
		}
		eng.Close()
	}
}

// TestSnapshotBuildKindsCounted: serve_snapshot_builds_total counts a
// lifecycle or confidence change as a delta build and the first build, an
// added rule and a load as full builds.
func TestSnapshotBuildKindsCounted(t *testing.T) {
	rb := core.NewRulebase()
	var ids []string
	for i := 0; i < 16; i++ {
		r, err := core.NewWhitelist(fmt.Sprintf("widget%d", i), "gadget")
		if err != nil {
			t.Fatal(err)
		}
		id, err := rb.Add(r, "test")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	defer eng.Close()
	delta := reg.Counter(MetricSnapshotBuilds, "kind", "delta")
	full := reg.Counter(MetricSnapshotBuilds, "kind", "full")
	expect := func(step string, wantDelta, wantFull int64) {
		t.Helper()
		eng.Acquire()
		if delta.Value() != wantDelta || full.Value() != wantFull {
			t.Fatalf("after %s: delta %d, full %d; want %d, %d", step, delta.Value(), full.Value(), wantDelta, wantFull)
		}
	}
	expect("NewEngine", 0, 1)
	if err := rb.Disable(ids[3], "test", ""); err != nil {
		t.Fatal(err)
	}
	expect("Disable", 1, 1)
	if err := rb.UpdateConfidence(ids[5], 0.4, "test"); err != nil {
		t.Fatal(err)
	}
	expect("UpdateConfidence", 2, 1)
	if err := rb.Enable(ids[3], "test", ""); err != nil {
		t.Fatal(err)
	}
	expect("Enable", 3, 1)
	r, err := core.NewWhitelist("sprocket", "gizmo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	expect("Add", 3, 2)
	data, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	// A load publishes at an unchanged version here; force the rebuild a
	// changed version would trigger with one more mutation after it.
	if err := rb.Disable(ids[0], "test", ""); err != nil {
		t.Fatal(err)
	}
	expect("load", 3, 3)
}
