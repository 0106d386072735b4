package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
)

// collectChanges subscribes and returns the slice pointer + cancel.
func collectChanges(rb *Rulebase) (*[]Change, func(), uint64) {
	var mu sync.Mutex
	out := &[]Change{}
	cancel, ver := rb.SubscribeChanges(func(ch Change) {
		mu.Lock()
		*out = append(*out, ch)
		mu.Unlock()
	})
	return out, cancel, ver
}

func scriptedMutations(t *testing.T, rb *Rulebase) {
	t.Helper()
	if _, err := rb.Add(mustRule(NewWhitelist("phones?", "phone")), "ana"); err != nil {
		t.Fatal(err)
	}
	guarded := mustRule(NewWhitelist("jeans?", "jeans"))
	guarded.Guards = []Guard{{Attr: "price", Op: "<", Value: "100"}}
	if _, err := rb.Add(guarded, "ana"); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(mustRule(NewAttrValue("brand", "apple", []string{"phone", "laptop"})), "bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(mustRule(NewBlacklist("phone case", "phone")), "bob"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Disable("R000001", "ana", "precision dip"); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence("R000002", 0.42, "eval"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Enable("R000001", "ana", "recovered"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Retire("R000004", "ana", "subsumed"); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeChangesDelivery: every mutation arrives as a Change whose
// Entry equals the audit entry, and replaying the stream onto a fresh
// rulebase reproduces the serialized state byte for byte.
func TestSubscribeChangesDelivery(t *testing.T) {
	rb := NewRulebase()
	got, cancel, ver := collectChanges(rb)
	defer cancel()
	if ver != 0 {
		t.Fatalf("registration version = %d, want 0", ver)
	}

	scriptedMutations(t, rb)

	audit := rb.Audit()
	if len(*got) != len(audit) {
		t.Fatalf("got %d changes, want %d", len(*got), len(audit))
	}
	for i, ch := range *got {
		if e := entryOf(ch); e != audit[i] {
			t.Fatalf("change %d entry = %+v, want audit %+v", i, e, audit[i])
		}
		if ch.Action == "add" && ch.Rule == nil {
			t.Fatalf("add change %d has no rule payload", i)
		}
	}

	// Replay onto a fresh rulebase: identical version, audit, serialized form.
	rb2 := NewRulebase()
	for _, ch := range *got {
		if err := rb2.ApplyChange(ch); err != nil {
			t.Fatalf("ApplyChange(%d): %v", ch.Version, err)
		}
	}
	if rb2.Version() != rb.Version() {
		t.Fatalf("replayed version = %d, want %d", rb2.Version(), rb.Version())
	}
	if !reflect.DeepEqual(rb2.Audit(), rb.Audit()) {
		t.Fatal("replayed audit log differs from live audit log")
	}
	live, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := json.Marshal(rb2)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(replayed) {
		t.Fatalf("replayed state differs:\nlive:     %s\nreplayed: %s", live, replayed)
	}
}

// TestSubscribeChangesRegistrationVersion: only mutations after the returned
// registration version are delivered, with no gap.
func TestSubscribeChangesRegistrationVersion(t *testing.T) {
	rb := NewRulebase()
	if _, err := rb.Add(mustRule(NewWhitelist("early", "t")), "a"); err != nil {
		t.Fatal(err)
	}
	got, cancel, ver := collectChanges(rb)
	defer cancel()
	if ver != 1 {
		t.Fatalf("registration version = %d, want 1", ver)
	}
	if _, err := rb.Add(mustRule(NewWhitelist("late", "t")), "a"); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || (*got)[0].Version != 2 {
		t.Fatalf("delivered = %+v, want exactly version 2", *got)
	}
	cancel()
	if _, err := rb.Add(mustRule(NewWhitelist("after", "t")), "a"); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatal("change delivered after cancel")
	}
}

// TestChangeRuleFrozenAtMutation: the Rule payload of an "add" change is a
// deep copy — later live mutations must not reach into it.
func TestChangeRuleFrozenAtMutation(t *testing.T) {
	rb := NewRulebase()
	got, cancel, _ := collectChanges(rb)
	defer cancel()
	id, err := rb.Add(mustRule(NewWhitelist("phones?", "phone")), "ana")
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Disable(id, "ana", "off"); err != nil {
		t.Fatal(err)
	}
	add := (*got)[0]
	if add.Rule.Status != Active {
		t.Fatalf("add change rule status = %v, want Active (frozen at mutation time)", add.Rule.Status)
	}
	live := rb.Get(id)
	if live.Status != Disabled {
		t.Fatalf("live rule status = %v, want Disabled", live.Status)
	}
}

// TestApplyChangeValidation: gaps, unknown actions, missing payloads, and
// duplicate adds are rejected without mutating state.
func TestApplyChangeValidation(t *testing.T) {
	rb := NewRulebase()
	r := mustRule(NewWhitelist("x", "t"))
	r.ID = "R000001"
	r.CreatedAt, r.UpdatedAt = 1, 1

	if err := rb.ApplyChange(Change{Version: 5, Action: "add", RuleID: "R000001", Rule: r}); err == nil {
		t.Fatal("version gap accepted")
	}
	if err := rb.ApplyChange(Change{Version: 1, Action: "add", RuleID: "R000001"}); err == nil {
		t.Fatal("add without rule payload accepted")
	}
	if err := rb.ApplyChange(Change{Version: 1, Action: "frobnicate", RuleID: "R000001"}); err == nil {
		t.Fatal("unknown action accepted")
	}
	if err := rb.ApplyChange(Change{Version: 1, Action: "disable", RuleID: "nope"}); err == nil {
		t.Fatal("disable of unknown rule accepted")
	}
	if rb.Version() != 0 || len(rb.Audit()) != 0 {
		t.Fatalf("failed replays mutated state: version=%d audit=%d", rb.Version(), len(rb.Audit()))
	}
	if err := rb.ApplyChange(Change{Version: 1, Action: "add", RuleID: "R000001", Rule: r, NextID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rb.ApplyChange(Change{Version: 2, Action: "add", RuleID: "R000001", Rule: r, NextID: 1}); err == nil {
		t.Fatal("duplicate add accepted")
	}
}

// TestApplyChangeDelivers: replay is delivered on the same feed as live
// mutations (serving engines must rebuild), with entries equal to the source
// stream, and the delivered stream replays onto a third rulebase byte for
// byte.
func TestApplyChangeDelivers(t *testing.T) {
	src := NewRulebase()
	stream, cancel, _ := collectChanges(src)
	scriptedMutations(t, src)
	cancel()

	dst := NewRulebase()
	delivered, cancelDst, _ := collectChanges(dst)
	defer cancelDst()
	for _, ch := range *stream {
		if err := dst.ApplyChange(ch); err != nil {
			t.Fatal(err)
		}
	}
	if len(*delivered) != len(*stream) {
		t.Fatalf("replay delivered %d changes, want %d", len(*delivered), len(*stream))
	}
	for i, ch := range *delivered {
		if entryOf(ch) != entryOf((*stream)[i]) {
			t.Fatalf("delivered change %d entry = %+v, want %+v", i, entryOf(ch), entryOf((*stream)[i]))
		}
	}

	third := NewRulebase()
	for _, ch := range *delivered {
		if err := third.ApplyChange(ch); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, rb := range map[string]*Rulebase{"dst": dst, "third": third} {
		got, err := json.Marshal(rb)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s state differs from source:\nsource: %s\n%s: %s", name, want, name, got)
		}
	}
}

// TestChangeFeedOrdered: a second mutator that commits while the first
// commit's delivery is still running is delivered after it. The version-1
// delivery waits (up to 100 ms) for version 2 to be recorded; an unordered
// feed records [2 1].
func TestChangeFeedOrdered(t *testing.T) {
	rb := NewRulebase()
	var mu sync.Mutex
	var order []uint64
	record := func(v uint64) {
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
	}
	firstBegun := make(chan struct{})
	secondRecorded := make(chan struct{})
	cancel, _ := rb.SubscribeChanges(func(ch Change) {
		switch ch.Version {
		case 1:
			close(firstBegun)
			select {
			case <-secondRecorded:
			case <-time.After(100 * time.Millisecond):
			}
			record(1)
		case 2:
			record(2)
			close(secondRecorded)
		}
	})
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := rb.Add(mustRule(NewWhitelist("first", "t")), "a")
		done <- err
	}()
	<-firstBegun
	if _, err := rb.Add(mustRule(NewWhitelist("second", "t")), "b"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(order, []uint64{1, 2}) {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
}

// TestApplyChangeNextID: a replayed rulebase assigns the same auto-IDs to
// future adds as the live one would.
func TestApplyChangeNextID(t *testing.T) {
	src := NewRulebase()
	stream, cancel, _ := collectChanges(src)
	if _, err := src.Add(mustRule(NewWhitelist("a", "t")), "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Add(mustRule(NewWhitelist("b", "t")), "x"); err != nil {
		t.Fatal(err)
	}
	cancel()

	dst := NewRulebase()
	for _, ch := range *stream {
		if err := dst.ApplyChange(ch); err != nil {
			t.Fatal(err)
		}
	}
	idLive, err := src.Add(mustRule(NewWhitelist("c", "t")), "x")
	if err != nil {
		t.Fatal(err)
	}
	idReplayed, err := dst.Add(mustRule(NewWhitelist("c", "t")), "x")
	if err != nil {
		t.Fatal(err)
	}
	if idLive != idReplayed {
		t.Fatalf("post-replay auto-ID %q != live auto-ID %q", idReplayed, idLive)
	}
}

// TestAddAutoIDCollision: an auto-assigned ID that an explicit add already
// took is skipped, not reused and not burned: the auto add succeeds with the
// next free ID, its change records the live counter, and the counter moves
// only for adds that happen.
func TestAddAutoIDCollision(t *testing.T) {
	rb := NewRulebase()
	var changes []Change
	cancel, _ := rb.SubscribeChanges(func(ch Change) { changes = append(changes, ch) })
	defer cancel()
	explicit := mustRule(NewWhitelist("x", "t"))
	explicit.ID = "R000001"
	if _, err := rb.Add(explicit, "a"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"R000002", "R000003"} {
		id, err := rb.Add(mustRule(NewWhitelist("y", "t")), "a")
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("auto ID = %q, want %q", id, want)
		}
		if last := changes[len(changes)-1]; last.RuleID != want || last.Note != rb.Get(want).String() {
			t.Fatalf("change records rule %q with note %q, want %q", last.RuleID, last.Note, want)
		}
	}
	if rb.Len() != 3 {
		t.Fatalf("rulebase has %d rules, want 3", rb.Len())
	}
	for i, ch := range changes[1:] {
		if ch.NextID != i+2 {
			t.Fatalf("change for %s records next_id %d, want %d", ch.RuleID, ch.NextID, i+2)
		}
	}
}

// TestRuleClone: deep copy of slices, shared compiled pattern.
func TestRuleClone(t *testing.T) {
	r := mustRule(NewAttrValue("brand", "apple", []string{"phone"}))
	r.Guards = []Guard{{Attr: "price", Op: "<", Value: "10"}}
	c := r.Clone()
	c.AllowedTypes[0] = "mutated"
	c.Guards[0].Attr = "mutated"
	if r.AllowedTypes[0] != "phone" || r.Guards[0].Attr != "price" {
		t.Fatal("Clone shares slice storage with the original")
	}
	p := mustRule(NewWhitelist("phones?", "phone"))
	pc := p.Clone()
	if pc.Pattern() != p.Pattern() {
		t.Fatal("Clone should share the immutable compiled pattern")
	}
	if (*Rule)(nil).Clone() != nil {
		t.Fatal("nil Clone should be nil")
	}
}

// TestDataIndexItemsCopy: the accessor must not leak the internal slice the
// posting lists index into.
func TestDataIndexItemsCopy(t *testing.T) {
	first := item("alpha phone", nil)
	second := item("beta jeans", nil)
	first.ID, second.ID = "1", "2"
	di := NewDataIndex([]*catalog.Item{first, second})
	got := di.Items()
	got[0], got[1] = got[1], got[0] // caller reorders its copy
	again := di.Items()
	if again[0].ID != "1" || again[1].ID != "2" {
		t.Fatal("DataIndex.Items leaked its internal slice: caller reorder visible")
	}
	if di.Size() != 2 {
		t.Fatalf("Size = %d, want 2", di.Size())
	}
}

// TestVerdictEvidenceCopy: appending to the returned evidence must not
// clobber the verdict's internal slice (verdicts are shared via the cache).
func TestVerdictEvidenceCopy(t *testing.T) {
	ex := NewSequentialExecutor([]*Rule{mustRule(NewWhitelist("phones?", "phone"))})
	v := ex.Apply(item("shiny phone", nil))
	ev := v.Evidence("phone")
	if len(ev) != 1 {
		t.Fatalf("evidence = %d rules, want 1", len(ev))
	}
	ev[0] = nil
	if v.Evidence("phone")[0] == nil {
		t.Fatal("Verdict.Evidence leaked its internal slice")
	}
}

// BenchmarkRulebaseUpdateConfidence guards the mutation critical section:
// the audit-note formatting must stay outside the lock.
func BenchmarkRulebaseUpdateConfidence(b *testing.B) {
	rb := NewRulebase()
	id, err := rb.Add(mustRule(NewWhitelist("phones?", "phone")), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rb.UpdateConfidence(id, float64(i%1000)/1000, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRulebaseMutateContended measures the mutation path with serving
// readers hammering ActiveView — the scenario the lock-scope fix targets:
// work moved outside rb.mu shortens every reader's wait.
func BenchmarkRulebaseMutateContended(b *testing.B) {
	rb := NewRulebase()
	ids := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		id, err := rb.Add(mustRule(NewWhitelist(fmt.Sprintf("tok%d", i), "t")), "bench")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rb.ActiveView()
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rb.UpdateConfidence(ids[i%len(ids)], 0.5, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// entryOf returns the audit entry a one-step change appended.
func entryOf(ch Change) AuditEntry {
	return AuditEntry{ch.Version, ch.Action, ch.RuleID, ch.Actor, ch.Note}
}
