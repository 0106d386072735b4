package core

import "testing"

// TestSubscribeNotifications: every completed mutation is delivered with the
// version it produced, in order; no-op or failed mutations stay silent;
// cancel stops delivery.
func TestSubscribeNotifications(t *testing.T) {
	rb := NewRulebase()
	var got []uint64
	cancel, _ := rb.SubscribeChanges(func(ch Change) { got = append(got, ch.Version) })

	id, err := rb.Add(mustRule(NewWhitelist("rings?", "rings")), "ana")
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Disable(id, "ana", "test"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Enable(id, "ana", "test"); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence(id, 0.5, "ana"); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("notifications = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("notifications = %v, want %v", got, want)
		}
	}

	// A no-op (enabling an already-active rule) or failed (unknown ID)
	// mutation must not notify.
	before := len(got)
	if err := rb.Enable(id, "ana", "test"); err != nil {
		t.Fatal(err)
	}
	_ = rb.Enable("no-such-rule", "ana", "test")
	if len(got) != before {
		t.Fatalf("no-op or failed mutation notified: %v", got)
	}

	// Subscribers may read the rulebase: delivery runs outside the rulebase
	// lock.
	cancel2, _ := rb.SubscribeChanges(func(ch Change) {
		if rv := rb.Version(); rv < ch.Version {
			t.Errorf("re-entrant Version() = %d behind notified %d", rv, ch.Version)
		}
		_ = rb.Active()
	})
	if _, err := rb.Add(mustRule(NewWhitelist("jeans?", "jeans")), "ana"); err != nil {
		t.Fatal(err)
	}
	cancel2()

	cancel()
	after := len(got)
	if _, err := rb.Add(mustRule(NewWhitelist("oils?", "oils")), "ana"); err != nil {
		t.Fatal(err)
	}
	if len(got) != after {
		t.Fatalf("cancelled subscriber still notified: %v", got)
	}
}

// TestActiveViewConsistency: ActiveView returns the version and the active
// rules from one critical section, equal to Version()+Active() when quiesced,
// and the returned slice is detached from later mutations.
func TestActiveViewConsistency(t *testing.T) {
	rb := NewRulebase()
	ids := make([]string, 0, 3)
	for _, src := range []string{"rings?", "jeans?", "oils?"} {
		id, err := rb.Add(mustRule(NewWhitelist(src, "t-"+src)), "ana")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := rb.Disable(ids[1], "ana", "test"); err != nil {
		t.Fatal(err)
	}

	ver, active := rb.ActiveView()
	if ver != rb.Version() {
		t.Fatalf("ActiveView version %d, Version() %d", ver, rb.Version())
	}
	plain := rb.Active()
	if len(active) != len(plain) {
		t.Fatalf("ActiveView has %d rules, Active() has %d", len(active), len(plain))
	}
	for i := range plain {
		if active[i].ID != plain[i].ID {
			t.Fatalf("ActiveView order diverges at %d: %s vs %s", i, active[i].ID, plain[i].ID)
		}
	}

	// Later mutations don't reach into the returned slice.
	if err := rb.Disable(ids[0], "ana", "test"); err != nil {
		t.Fatal(err)
	}
	if len(active) != len(plain) {
		t.Fatal("ActiveView slice mutated by a later Disable")
	}
}
