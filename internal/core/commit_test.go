package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestCommitIsOneVersion: each bulk intent — DisableWhere over N rules,
// EnableAll, a 3-rule AddAll — raises the version by exactly 1, makes one
// delivery whose steps are in op order, and leaves one audit entry per step,
// all at that version.
func TestCommitIsOneVersion(t *testing.T) {
	rb := newTestRulebase(t)
	var got []Change
	cancel, _ := rb.SubscribeChanges(func(ch Change) { got = append(got, ch) })
	defer cancel()

	intent := func(name string, run func() []string) {
		t.Helper()
		got = got[:0]
		before, audit := rb.Version(), len(rb.Audit())
		want := run()
		if v := rb.Version(); v != before+1 {
			t.Fatalf("%s: version %d -> %d, want +1", name, before, v)
		}
		if len(got) != 1 {
			t.Fatalf("%s: %d deliveries, want 1", name, len(got))
		}
		ch := got[0]
		if ch.Version != before+1 || len(ch.Ops) != len(want) {
			t.Fatalf("%s: delivered v%d with %d steps, want v%d with %d", name, ch.Version, len(ch.Ops), before+1, len(want))
		}
		for i, s := range ch.Ops {
			if s.RuleID != want[i] {
				t.Fatalf("%s: step %d names %s, want %s (op order)", name, i, s.RuleID, want[i])
			}
		}
		entries := rb.Audit()[audit:]
		if len(entries) != len(want) {
			t.Fatalf("%s: %d audit entries, want %d", name, len(entries), len(want))
		}
		for i, e := range entries {
			if e.Version != before+1 || e.RuleID != want[i] || e.Actor != "ana" {
				t.Fatalf("%s: audit entry %d = %+v", name, i, e)
			}
		}
	}

	var ids []string
	intent("DisableWhere", func() []string {
		ids = rb.DisableWhere(func(r *Rule) bool { return r.Kind != Filter }, "ana", "drill")
		if len(ids) != 5 {
			t.Fatalf("DisableWhere disabled %v, want 5 rules", ids)
		}
		return ids
	})
	intent("EnableAll", func() []string {
		// EnableAll builds its ops in insertion order, whatever the order of
		// the IDs it is given.
		rev := make([]string, len(ids))
		for i, id := range ids {
			rev[len(ids)-1-i] = id
		}
		rb.EnableAll(rev, "ana", "restore")
		return ids
	})
	intent("AddAll", func() []string {
		rules := []*Rule{mustRule(NewWhitelist("jeans?", "jeans")), mustRule(NewFilter("toys")), mustRule(NewGate("mugs?", "mugs"))}
		if err := rb.AddAll(rules, "ana"); err != nil {
			t.Fatal(err)
		}
		return []string{rules[0].ID, rules[1].ID, rules[2].ID}
	})
	if len(rb.Active()) != 9 {
		t.Fatalf("%d active rules, want 9", len(rb.Active()))
	}
}

// TestCommitAllOrNothing: a changeset with a bad step in the middle errors
// and changes nothing — the rulebase JSON is byte-identical, nothing is
// delivered, and the next auto-ID add gets the ID it would have had anyway.
func TestCommitAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(rb *Rulebase) Change
	}{
		{"unknown ID", func(*Rulebase) Change { return Change{Action: "disable", RuleID: "nope"} }},
		{"NaN update", func(rb *Rulebase) Change {
			return Change{Action: "update", RuleID: rb.All()[1].ID, Confidence: math.NaN()}
		}},
		{"explicit duplicate ID", func(rb *Rulebase) Change {
			r := mustRule(NewFilter("toys"))
			r.ID = rb.All()[2].ID
			return Change{Action: "add", Rule: r}
		}},
		{"same rule twice", func(rb *Rulebase) Change { return Change{Action: "retire", RuleID: rb.All()[0].ID} }},
		{"retired out of retirement", func(rb *Rulebase) Change { return Change{Action: "enable", RuleID: rb.All()[3].ID} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb := newTestRulebase(t)
			if err := rb.Retire(rb.All()[3].ID, "ana", ""); err != nil {
				t.Fatal(err)
			}
			before, err := json.Marshal(rb)
			if err != nil {
				t.Fatal(err)
			}
			delivered := 0
			cancel, _ := rb.SubscribeChanges(func(Change) { delivered++ })
			defer cancel()

			auto := mustRule(NewWhitelist("jeans?", "jeans"))
			ops := []Change{
				{Action: "add", Rule: auto},
				{Action: "disable", RuleID: rb.All()[0].ID},
				tc.bad(rb),
				{Action: "update", RuleID: rb.All()[4].ID, Confidence: 0.5},
			}
			if _, err := rb.Commit("ana", ops...); err == nil {
				t.Fatal("a changeset with a bad step committed")
			}
			after, err := json.Marshal(rb)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("refused changeset changed the rulebase:\nbefore: %s\nafter:  %s", before, after)
			}
			if delivered != 0 {
				t.Fatalf("refused changeset delivered %d changes", delivered)
			}
			if auto.ID != "" || auto.CreatedAt != 0 || auto.Author != "" {
				t.Fatalf("refused changeset stamped its rule: %+v", auto)
			}
			id, err := rb.Add(mustRule(NewWhitelist("mugs?", "mugs")), "ana")
			if err != nil {
				t.Fatal(err)
			}
			if id != "R000007" {
				t.Fatalf("next auto-ID = %s, want R000007", id)
			}
		})
	}
}

// TestCommitDropsNoOps: ops already in their target state are dropped; when
// all are, nothing commits and Commit returns the zero Change.
func TestCommitDropsNoOps(t *testing.T) {
	rb := newTestRulebase(t)
	id := rb.All()[0].ID
	ch, err := rb.Commit("ana", Change{Action: "enable", RuleID: id})
	if err != nil || ch.Version != 0 || rb.Version() != 6 {
		t.Fatalf("all-no-op commit: %+v, %v, version %d", ch, err, rb.Version())
	}
	ch, err = rb.Commit("ana", Change{Action: "enable", RuleID: id}, Change{Action: "disable", RuleID: rb.All()[1].ID, Note: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Version != 7 || ch.Action != "disable" || len(ch.Ops) != 0 || ch.Actor != "ana" {
		t.Fatalf("one surviving step should commit flat: %+v", ch)
	}
}

// TestApplyChangeReplaysChangeset: a multi-step record replays onto a copy of
// the rulebase exactly, through its JSON form, and a replayed record naming a
// rule twice is refused whole.
func TestApplyChangeReplaysChangeset(t *testing.T) {
	live := newTestRulebase(t)
	replica := newTestRulebase(t)
	var recs []Change
	cancel, _ := live.SubscribeChanges(func(ch Change) { recs = append(recs, ch) })
	defer cancel()
	if _, err := live.Commit("ana",
		Change{Action: "add", Rule: mustRule(NewFilter("toys"))},
		Change{Action: "disable", RuleID: "R000001", Note: "off"},
		Change{Action: "update", RuleID: "R000002", Confidence: 0.25},
		Change{Action: "retire", RuleID: "R000003"},
	); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec Change
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	twice := rec
	twice.Ops = append(append([]Change(nil), rec.Ops...), Change{Action: "enable", RuleID: "R000001"})
	if err := replica.ApplyChange(twice); err == nil || replica.Version() != 6 {
		t.Fatalf("a record naming a rule twice replayed: %v, version %d", err, replica.Version())
	}
	if err := replica.ApplyChange(rec); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(live)
	b, _ := json.Marshal(replica)
	if !bytes.Equal(a, b) {
		t.Fatalf("replay differs:\nlive:    %s\nreplica: %s", a, b)
	}
}
