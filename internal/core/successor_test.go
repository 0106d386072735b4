package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// TestMutationsCopyOnWrite: a rule handed out before a lifecycle or
// confidence change keeps the values it had, and Get returns the updated
// copy — stored rules are never written once they have escaped the lock.
func TestMutationsCopyOnWrite(t *testing.T) {
	rb := newTestRulebase(t)
	old := rb.All()[0]
	id := old.ID
	if err := rb.Disable(id, "ana", ""); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence(id, 0.25, "ana"); err != nil {
		t.Fatal(err)
	}
	if err := rb.ApplyChange(Change{Version: rb.Version() + 1, Action: "retire", RuleID: id}); err != nil {
		t.Fatal(err)
	}
	if old.Status != Active || old.Confidence != 1 || old.UpdatedAt != old.CreatedAt {
		t.Fatalf("a rule read before the mutations was written: %+v", old)
	}
	cur := rb.Get(id)
	if cur == old || cur.Status != Retired || cur.Confidence != 0.25 || cur.UpdatedAt != rb.Version() {
		t.Fatalf("Get after the mutations = %+v", cur)
	}
	if cur.Pattern() != old.Pattern() {
		t.Fatal("the updated copy must share the compiled pattern")
	}
}

// TestHealthDuringConfidenceUpdates reads Health — which reports each rule's
// confidence without a lock — while an analyst re-estimates confidences. Run
// under -race: when UpdateConfidence wrote the *Rule the executor held, this
// was a data race.
func TestHealthDuringConfidenceUpdates(t *testing.T) {
	items, rules := corpusAndRules(t, 50)
	rb := NewRulebase()
	if err := rb.AddAll(rules, "ana"); err != nil {
		t.Fatal(err)
	}
	inst := NewInstrumentedExecutor(rb.Active(), obs.NewRegistry())
	for _, it := range items {
		inst.Apply(it)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			_ = rb.UpdateConfidence(rules[i%len(rules)].ID, float64(i%100)/100, "ana")
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			if len(inst.Health(0.92)) == 0 {
				t.Fatal("empty health report")
			}
		}
	}
}

// TestFindDuplicatesDuringDisables runs FindDuplicates over All() — it reads
// every rule's status — while rules are disabled and re-enabled. Run under
// -race: when setStatus wrote the *Rule All() had returned, this was a data
// race.
func TestFindDuplicatesDuringDisables(t *testing.T) {
	rb := newTestRulebase(t)
	for i := 0; i < 20; i++ {
		if _, err := rb.Add(mustRule(NewWhitelist("rings?", "rings")), "ana"); err != nil {
			t.Fatal(err)
		}
	}
	all := rb.All()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			id := all[i%len(all)].ID
			_ = rb.Disable(id, "ana", "")
			_ = rb.Enable(id, "ana", "")
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			FindDuplicates(rb.All())
			FindDuplicates(all)
		}
	}
}

// TestSuccessorSharesOrRebuilds walks an executor through successive rule
// lists: lifecycle and confidence changes share the index (dead slots are
// skipped by every accessor), an added rule, a load and too many dead slots
// rebuild it, and in every generation each live slot's per-rule counters are
// the registry's own series for that rule ID.
func TestSuccessorSharesOrRebuilds(t *testing.T) {
	rb := NewRulebase()
	for i := 0; i < 24; i++ {
		var r *Rule
		if i%4 == 3 {
			r = mustRule(NewAttrExists(fmt.Sprintf("attr%d", i), "t"))
		} else {
			r = mustRule(NewWhitelist(fmt.Sprintf("tok%d (a | b)", i), "t"))
		}
		if _, err := rb.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	e := NewInstrumentedExecutor(rb.Active(), reg)
	ids := make([]string, 0, 24)
	for _, r := range rb.All() {
		ids = append(ids, r.ID)
	}

	step := func(name string, wantShared bool) {
		t.Helper()
		active := rb.Active()
		next, shared := e.Successor(active)
		if shared != wantShared {
			t.Fatalf("%s: shared = %v, want %v", name, shared, wantShared)
		}
		if shared != (next.idx.postings == e.idx.postings) {
			t.Fatalf("%s: shared = %v but postings shared = %v", name, shared, next.idx.postings == e.idx.postings)
		}
		if got := next.Index().Rules(); len(got) != len(active) || next.Index().Len() != len(active) {
			t.Fatalf("%s: index lists %d rules (Len %d), %d active", name, len(got), next.Index().Len(), len(active))
		}
		for i, r := range next.Index().Rules() {
			if r != active[i] {
				t.Fatalf("%s: rule %d is %s, want the active %s", name, i, r.ID, active[i].ID)
			}
		}
		for s, r := range next.idx.rules {
			if r == nil {
				continue
			}
			if next.ruleTel[s].fired != reg.Counter(MetricRuleFired, "rule", r.ID) ||
				next.ruleTel[s].effective != reg.Counter(MetricRuleEffective, "rule", r.ID) {
				t.Fatalf("%s: slot %d (%s) does not record into the registry's series", name, s, r.ID)
			}
		}
		// A dead slot is never proposed, on either path.
		it := &catalog.Item{ID: "x", Attrs: map[string]string{"Title": "tok0 a tok1 b tok2 a", "attr3": "y"}}
		want := NewSequentialExecutor(active).Apply(it).Explain()
		if got := next.Apply(it).Explain(); got != want {
			t.Fatalf("%s: Apply:\n%s\nwant:\n%s", name, got, want)
		}
		if got := next.ApplyBatch([]*catalog.Item{it}, 1)[0].Explain(); got != want {
			t.Fatalf("%s: ApplyBatch:\n%s\nwant:\n%s", name, got, want)
		}
		for _, r := range next.Index().CandidatesFor(it) {
			if r == nil {
				t.Fatalf("%s: CandidatesFor proposed a dead slot", name)
			}
		}
		e = next
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(rb.Disable(ids[0], "ana", ""))
	step("disable", true)
	must(rb.Disable(ids[3], "ana", ""))
	step("disable attr", true)
	must(rb.UpdateConfidence(ids[1], 0.5, "ana"))
	step("update", true)
	must(rb.Enable(ids[0], "ana", ""))
	step("enable", true)
	must(rb.Retire(ids[2], "ana", ""))
	step("retire: 2 of 24 dead", true)
	must(rb.Disable(ids[4], "ana", ""))
	step("3 of 24 dead", true)
	must(rb.Disable(ids[5], "ana", ""))
	step("4 of 24 dead: over 1/8", false)
	must(rb.Disable(ids[6], "ana", ""))
	step("disable after the rebuild", true)
	_, err := rb.Add(mustRule(NewWhitelist("fresh", "t")), "ana")
	must(err)
	step("add", false)
	data, err := json.Marshal(rb)
	must(err)
	must(rb.UnmarshalJSON(data))
	step("load", false)
	step("unchanged", true)
	if plain, shared := NewIndexedExecutor(rb.Active()).Successor(rb.Active()); !shared || plain.tel != nil || plain.ruleTel != nil {
		t.Fatal("a plain executor's successor must share its index and stay without telemetry")
	}
}
