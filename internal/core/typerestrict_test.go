package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTypeRestrictPaperExample(t *testing.T) {
	// §4: "if the title contains any word from a given dictionary then the
	// product is either a PC or a laptop".
	dict, err := NewTypeRestrict("(desktop | workstation | ssd | motherboard | ram)",
		[]string{"desktop computers", "laptop computers"})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWhitelist("towers?", "cooling towers")
	if err != nil {
		t.Fatal(err)
	}
	wl2, err := NewWhitelist("(desktop | tower)", "desktop computers")
	if err != nil {
		t.Fatal(err)
	}
	ex := NewSequentialExecutor([]*Rule{dict, wl, wl2})

	// The constraint kills the cooling-tower assertion and keeps the
	// desktop assertion.
	v := ex.Apply(item("gaming tower ssd 1tb", nil))
	got := v.FinalTypes()
	if len(got) != 1 || got[0] != "desktop computers" {
		t.Fatalf("constraint should keep only computer types: %v", got)
	}
	// Without dictionary words, the cooling-tower rule is unconstrained.
	v = ex.Apply(item("evaporative cooling tower kit", nil))
	found := false
	for _, ft := range v.FinalTypes() {
		if ft == "cooling towers" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unconstrained item lost its assertion: %v", v.FinalTypes())
	}
}

func TestTypeRestrictValidation(t *testing.T) {
	if _, err := NewTypeRestrict("x", nil); err == nil {
		t.Fatal("empty allowed set should fail")
	}
	if _, err := NewTypeRestrict("(((", []string{"a"}); err == nil {
		t.Fatal("bad pattern should fail")
	}
	if _, err := NewTypeRestrict(`(a | \syn)`, []string{"a"}); err == nil {
		t.Fatal("syn slot should fail")
	}
}

func TestTypeRestrictConstrainsOnly(t *testing.T) {
	dict := mustRule(NewTypeRestrict("gizmo", []string{"gadgets"}))
	ex := NewSequentialExecutor([]*Rule{dict})
	v := ex.Apply(item("amazing gizmo deluxe", nil))
	if len(v.FinalTypes()) != 0 {
		t.Fatalf("constraints must not assert types: %v", v.FinalTypes())
	}
	if len(v.Constraints()) != 1 || !v.Admits("gadgets") || v.Admits("widgets") {
		t.Fatalf("constraint missing: %v", v.Constraints())
	}
}

func TestTypeRestrictStringAndJSON(t *testing.T) {
	r := mustRule(NewTypeRestrict("(pc | desktop)", []string{"desktop computers", "laptop computers"}))
	if !strings.Contains(r.String(), "type-restrict") || !strings.Contains(r.String(), "one of") {
		t.Fatalf("String(): %s", r)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Rule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kind != TypeRestrict || len(back.AllowedTypes) != 2 {
		t.Fatalf("round trip: %+v", back)
	}
	if !back.Matches(item("budget pc bundle", nil)) {
		t.Fatal("round-tripped pattern lost semantics")
	}
}

func TestTypeRestrictIndexed(t *testing.T) {
	dict := mustRule(NewTypeRestrict("(desktop | tower)", []string{"desktop computers"}))
	wl := mustRule(NewWhitelist("towers?", "cooling towers"))
	seq := NewSequentialExecutor([]*Rule{dict, wl})
	idx := NewIndexedExecutor([]*Rule{dict, wl})
	for _, title := range []string{"gaming tower", "cooling tower kit", "office desk"} {
		it := item(title, nil)
		if !VerdictsEqual(seq.Apply(it), idx.Apply(it)) {
			t.Fatalf("executors disagree on %q", title)
		}
	}
}

func TestTypeRestrictDuplicatesKeyedByAllowedSet(t *testing.T) {
	rb := NewRulebase()
	a := mustRule(NewTypeRestrict("(pc | desktop)", []string{"desktop computers"}))
	b := mustRule(NewTypeRestrict("(pc | desktop)", []string{"laptop computers"}))
	c := mustRule(NewTypeRestrict("(pc | desktop)", []string{"desktop computers"}))
	addRules(t, rb, a, b, c)
	dups := FindDuplicates(rb.Active())
	if len(dups) != 1 {
		t.Fatalf("only the identical-allowed pair is a duplicate: %v", dups)
	}
}

func TestTypeRestrictExcludedFromSubsumption(t *testing.T) {
	rb := NewRulebase()
	general := mustRule(NewTypeRestrict("pc", []string{"desktop computers"}))
	specific := mustRule(NewTypeRestrict("gaming.*pc", []string{"desktop computers"}))
	addRules(t, rb, general, specific)
	if pairs := FindSubsumed(rb.Active()); len(pairs) != 0 {
		t.Fatalf("constraint rules must not be subsumption-analyzed: %v", pairs)
	}
}
