package persist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// goldenWAL is a WAL written by goldenScript through a Store, and
// goldenState the rulebase JSON the script left, both by the code that still
// kept a separate persist record type next to core.Change. They pin the
// on-disk format and the state transitions: never regenerate them. A
// deliberate format change adds new golden files and keeps these restoring.
const (
	goldenWAL   = "testdata/golden.wal"
	goldenState = "testdata/golden.json"
)

// goldenScript is the fixed mutation script behind goldenWAL. It covers every
// action, auto and explicit IDs, an empty actor and note, a zero confidence
// (an omitted key), every rule kind with guards and allowed types, and the
// mutations that commit nothing (a duplicate ID, a no-op disable, enabling a
// retired rule).
func goldenScript(tb testing.TB, rb *core.Rulebase) {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	add := func(r *core.Rule, err error) func(actor string) string {
		must(err)
		return func(actor string) string {
			id, err := rb.Add(r, actor)
			must(err)
			return id
		}
	}
	wl, err := core.NewWhitelist("phones? (case)?", "phone")
	must(err)
	wl.Provenance, wl.Confidence, wl.Note = "analyst", 0.9, "seed rule"
	phone := add(wl, nil)("ana")
	av, err := core.NewAttrValue("brand", "apple", []string{"phone", "laptop"})
	must(err)
	av.ID = "brand-apple"
	av.Guards = []core.Guard{{Attr: "price", Op: "<", Value: "100"}}
	explicit := add(av, nil)("")
	dup, err := core.NewFilter("vinyl")
	must(err)
	dup.ID = explicit
	if _, err := rb.Add(dup, "ana"); err == nil {
		tb.Fatal("duplicate add committed")
	}
	cases := add(core.NewBlacklist("phone case", "phone"))("bob")
	add(core.NewGate("espresso", "espresso machine"))("ana")
	add(core.NewAttrExists("isbn", "book"))("ana")
	add(core.NewTypeRestrict("(laptop | monitor)", []string{"laptop", "monitor"}))("ana")
	must(rb.Disable(cases, "ana", "precision dip on cases"))
	must(rb.Disable(cases, "ana", "again")) // no-op: already disabled
	must(rb.Enable(cases, "ana", ""))
	must(rb.UpdateConfidence(phone, 0.875, "eval-pipeline"))
	must(rb.UpdateConfidence(explicit, 0, "eval-pipeline"))
	must(rb.Retire(cases, "bob", "business rule withdrawn"))
	if err := rb.Enable(cases, "ana", "undo"); err == nil {
		tb.Fatal("enabling a retired rule committed")
	}
	add(core.NewFilter("vinyl"))("")
	must(rb.Disable(explicit, "", "scale down"))
	must(rb.Retire(phone, "ana", "superseded"))
}

// TestGoldenWALRestores restores goldenWAL through Open/Restore and requires
// the rulebase goldenScript leaves live, which must marshal to goldenState;
// and re-encoding the decoded records must reproduce the file.
func TestGoldenWALRestores(t *testing.T) {
	data, err := os.ReadFile(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	recs, durable, torn := DecodeRecords(data)
	if torn || durable != len(data) {
		t.Fatalf("golden WAL: durable %d of %d bytes, torn=%v", durable, len(data), torn)
	}
	var again []byte
	for _, ch := range recs {
		frame, err := EncodeRecord(ch)
		if err != nil {
			t.Fatal(err)
		}
		again = append(again, frame...)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-encoded golden WAL differs:\ngot:  %q\nwant: %q", again, data)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	restored := core.NewRulebase()
	rs, err := st.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != len(recs) {
		t.Fatalf("replayed %d of %d golden records", rs.Replayed, len(recs))
	}
	live := core.NewRulebase()
	goldenScript(t, live)
	assertEquivalent(t, live, restored)
	want, err := os.ReadFile(goldenState)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("golden script state differs:\ngot:  %s\nwant: %s", got, want)
	}
}
