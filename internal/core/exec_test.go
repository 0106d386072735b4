package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/randx"
)

// corpusAndRules builds a catalog corpus plus a realistic mixed rulebase.
func corpusAndRules(t *testing.T, nItems int) ([]*catalog.Item, []*Rule) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: 31, NumTypes: 50})
	items := cat.GenerateBatch(catalog.BatchSpec{Size: nItems, Epoch: 1})
	specs := []struct {
		kind   Kind
		src    string
		target string
	}{
		{Whitelist, "rings?", "rings"},
		{Whitelist, "diamond.*trio sets?", "rings"},
		{Whitelist, "(motor | engine) oils?", "motor oil"},
		{Whitelist, "jeans?", "jeans"},
		{Whitelist, "denim.*jeans?", "jeans"},
		{Whitelist, "(satchel | purse | tote) ", "handbags"},
		{Whitelist, "laptop (bag | case | sleeve)s?", "laptop bags & cases"},
		{Blacklist, "olive oils?", "motor oil"},
		{Blacklist, "laptop (bag | case | sleeve)s?", "laptop computers"},
		{Whitelist, "laptops?", "laptop computers"},
	}
	var rules []*Rule
	for i, s := range specs {
		var r *Rule
		var err error
		switch s.kind {
		case Whitelist:
			r, err = NewWhitelist(s.src, s.target)
		case Blacklist:
			r, err = NewBlacklist(s.src, s.target)
		}
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		r.ID = s.src + "->" + s.target
		rules = append(rules, r)
	}
	isbn := mustRule(NewAttrExists("isbn", "books"))
	isbn.ID = "isbn->books"
	rules = append(rules, isbn)
	brand := mustRule(NewAttrValue("Brand Name", "apex", []string{"laptop computers", "smart phones", "tablets", "watches", "headphones"}))
	brand.ID = "brand-apex"
	rules = append(rules, brand)
	return items, rules
}

func TestSequentialVerdictSemantics(t *testing.T) {
	_, rules := corpusAndRules(t, 0)
	ex := NewSequentialExecutor(rules)

	v := ex.Apply(item("Platinaire Diamond Accent Ring", nil))
	if got := v.FinalTypes(); len(got) != 1 || got[0] != "rings" {
		t.Fatalf("final types = %v", got)
	}
	if len(v.Evidence("rings")) == 0 {
		t.Fatal("evidence missing")
	}

	// Blacklist veto: olive oil is matched by nothing whitelisting, plus
	// vetoed anyway.
	v = ex.Apply(item("extra virgin olive oil 500ml", nil))
	for _, ft := range v.FinalTypes() {
		if ft == "motor oil" {
			t.Fatal("olive oil escaped the blacklist")
		}
	}

	// Whitelist + blacklist interplay: laptop bag asserts bags and vetoes
	// laptop computers.
	v = ex.Apply(item("padded laptop bag 15.6 inch", nil))
	finals := v.FinalTypes()
	if len(finals) != 1 || finals[0] != "laptop bags & cases" {
		t.Fatalf("laptop bag finals = %v", finals)
	}
}

func TestAttrValueConstrains(t *testing.T) {
	_, rules := corpusAndRules(t, 0)
	ex := NewSequentialExecutor(rules)
	// "apex ring" matches rings whitelist but brand constraint excludes it.
	v := ex.Apply(item("apex diamond ring", map[string]string{"Brand Name": "apex"}))
	if got := v.FinalTypes(); len(got) != 0 {
		t.Fatalf("brand constraint should suppress rings: %v", got)
	}
	// Constraint alone asserts nothing.
	v = ex.Apply(item("mystery gadget", map[string]string{"Brand Name": "apex"}))
	if got := v.FinalTypes(); len(got) != 0 {
		t.Fatalf("constraint alone asserted: %v", got)
	}
	// Whitelist inside the allowed set survives.
	v = ex.Apply(item("apex laptop 8gb", map[string]string{"Brand Name": "apex"}))
	if got := v.FinalTypes(); len(got) != 1 || got[0] != "laptop computers" {
		t.Fatalf("allowed whitelist suppressed: %v", got)
	}
}

func TestAttrExistsInVerdict(t *testing.T) {
	_, rules := corpusAndRules(t, 0)
	ex := NewSequentialExecutor(rules)
	v := ex.Apply(item("The Long Afternoon", map[string]string{"isbn": "9781234567890"}))
	if got := v.FinalTypes(); len(got) != 1 || got[0] != "books" {
		t.Fatalf("isbn rule did not classify book: %v", got)
	}
}

func TestExplainMentionsRules(t *testing.T) {
	_, rules := corpusAndRules(t, 0)
	ex := NewSequentialExecutor(rules)
	v := ex.Apply(item("Diamond Ring", nil))
	s := v.Explain()
	if s == "" || !contains(s, "rings") {
		t.Fatalf("explanation unusable: %q", s)
	}
	empty := ex.Apply(item("mystery object", nil)).Explain()
	if !contains(empty, "no type survives") {
		t.Fatalf("empty verdict explanation: %q", empty)
	}
}

// TestExplainAssertedOnly: a clean single-assertion verdict lists the type
// with its supporting rules and nothing else.
func TestExplainAssertedOnly(t *testing.T) {
	w := mustRule(NewWhitelist("rings?", "rings"))
	w.ID = "W1"
	v := NewSequentialExecutor([]*Rule{w}).Apply(item("diamond ring", nil))
	s := v.Explain()
	if !contains(s, "type rings because:") || !contains(s, "+ [W1") {
		t.Fatalf("asserted-only explanation wrong: %q", s)
	}
	if contains(s, "vetoed by") || contains(s, "no type survives") {
		t.Fatalf("asserted-only explanation has spurious sections: %q", s)
	}
}

// TestExplainVetoedWithAssertion: when a whitelist assertion is overridden
// by a blacklist, the explanation names both sides — the analyst sees why
// the type was asserted AND why it did not survive.
func TestExplainVetoedWithAssertion(t *testing.T) {
	w := mustRule(NewWhitelist("oils?", "motor oil"))
	w.ID = "W1"
	b := mustRule(NewBlacklist("olive oils?", "motor oil"))
	b.ID = "B1"
	v := NewSequentialExecutor([]*Rule{w, b}).Apply(item("extra virgin olive oil", nil))
	s := v.Explain()
	if !contains(s, "no type survives") {
		t.Fatalf("vetoed verdict should say nothing survives: %q", s)
	}
	if !contains(s, "type motor oil vetoed by:") || !contains(s, "- [B1") {
		t.Fatalf("veto section missing: %q", s)
	}
	// Veto sections only appear for types that were actually asserted:
	// a lone veto with no assertion stays silent.
	v2 := NewSequentialExecutor([]*Rule{b}).Apply(item("extra virgin olive oil", nil))
	if s2 := v2.Explain(); contains(s2, "vetoed by") {
		t.Fatalf("unasserted veto should not be explained: %q", s2)
	}
}

// TestExplainContradictoryAllowed: contradictory AttrValue constraints empty
// the Allowed set, so even an asserted type yields "no type survives".
func TestExplainContradictoryAllowed(t *testing.T) {
	a := mustRule(NewAttrValue("Brand Name", "apex", []string{"laptop computers"}))
	b := mustRule(NewAttrValue("Carrier", "unlocked", []string{"smart phones"}))
	w := mustRule(NewWhitelist("laptops?", "laptop computers"))
	w.ID = "W1"
	v := NewSequentialExecutor([]*Rule{a, b, w}).Apply(
		item("apex laptop", map[string]string{"Brand Name": "apex", "Carrier": "unlocked"}))
	if len(v.Constraints()) != 2 || v.Admits("laptop computers") || v.Admits("smart phones") {
		t.Fatalf("constraints should contradict: %v", v.Constraints())
	}
	s := v.Explain()
	if !contains(s, "no type survives") {
		t.Fatalf("contradictory constraints should leave no survivor: %q", s)
	}
	if contains(s, "type laptop computers because:") {
		t.Fatalf("suppressed type must not be explained as surviving: %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestIndexedMatchesSequential(t *testing.T) {
	items, rules := corpusAndRules(t, 2000)
	seq := NewSequentialExecutor(rules)
	idx := NewIndexedExecutor(rules)
	for _, it := range items {
		if !VerdictsEqual(seq.Apply(it), idx.Apply(it)) {
			t.Fatalf("executors disagree on %q", it.Title())
		}
	}
}

func TestIndexedMatchesSequentialProperty(t *testing.T) {
	// Random titles out of arbitrary vocabulary must also agree.
	_, rules := corpusAndRules(t, 0)
	seq := NewSequentialExecutor(rules)
	idx := NewIndexedExecutor(rules)
	vocab := []string{"ring", "rings", "diamond", "trio", "set", "motor", "oil", "olive",
		"laptop", "bag", "jeans", "denim", "satchel", "x", "y", "z"}
	f := func(seed uint64, n uint8) bool {
		r := randx.New(seed)
		tokens := make([]string, int(n)%12)
		for i := range tokens {
			tokens[i] = vocab[r.Intn(len(vocab))]
		}
		it := &catalog.Item{ID: "q", Attrs: map[string]string{"Title": ""}}
		// Bypass tokenization: construct via title join.
		it.Attrs["Title"] = join(tokens)
		return VerdictsEqual(seq.Apply(it), idx.Apply(it))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func join(tokens []string) string {
	out := ""
	for i, t := range tokens {
		if i > 0 {
			out += " "
		}
		out += t
	}
	return out
}

func TestRuleIndexSelectivity(t *testing.T) {
	items, rules := corpusAndRules(t, 500)
	idx := NewRuleIndex(rules)
	if idx.Len() != len(rules) {
		t.Fatalf("indexed %d of %d rules", idx.Len(), len(rules))
	}
	totalCands := 0
	for _, it := range items {
		totalCands += len(idx.CandidatesFor(it))
	}
	avg := float64(totalCands) / float64(len(items))
	if avg >= float64(len(rules)) {
		t.Fatalf("index has no selectivity: avg %.1f of %d", avg, len(rules))
	}
}

func TestDataIndexMatchesBruteForce(t *testing.T) {
	items, rules := corpusAndRules(t, 800)
	di := NewDataIndex(items)
	for _, r := range rules {
		if r.Kind == Filter {
			continue
		}
		want := map[int32]bool{}
		for i, it := range items {
			if r.Matches(it) {
				want[int32(i)] = true
			}
		}
		got := di.Matches(r)
		if len(got) != len(want) {
			t.Fatalf("rule %s: index found %d, brute force %d", r.ID, len(got), len(want))
		}
		for _, i := range got {
			if !want[i] {
				t.Fatalf("rule %s: spurious match %d", r.ID, i)
			}
		}
		if di.Coverage(r) != len(want) {
			t.Fatalf("coverage mismatch for %s", r.ID)
		}
	}
}

func TestExecuteBatchParallelAgreesWithSerial(t *testing.T) {
	items, rules := corpusAndRules(t, 1500)
	ex := NewIndexedExecutor(rules)
	serial := ExecuteBatchItemwise(ex, items, 1)
	parallel := ExecuteBatchItemwise(ex, items, 8)
	if len(serial) != len(parallel) {
		t.Fatal("result length mismatch")
	}
	for i := range serial {
		if !VerdictsEqual(serial[i], parallel[i]) {
			t.Fatalf("parallel execution diverged at %d", i)
		}
	}
}

func TestExecuteBatchMoreWorkersThanItems(t *testing.T) {
	items, rules := corpusAndRules(t, 3)
	ex := NewSequentialExecutor(rules)
	out := ExecuteBatchItemwise(ex, items, 16)
	for i, v := range out {
		if v == nil {
			t.Fatalf("missing verdict %d", i)
		}
	}
}

func TestVerdictContradictoryConstraints(t *testing.T) {
	a := mustRule(NewAttrValue("Brand Name", "apex", []string{"laptop computers"}))
	b := mustRule(NewAttrValue("Carrier", "unlocked", []string{"smart phones"}))
	w := mustRule(NewWhitelist("laptops?", "laptop computers"))
	ex := NewSequentialExecutor([]*Rule{a, b, w})
	v := ex.Apply(item("apex laptop", map[string]string{"Brand Name": "apex", "Carrier": "unlocked"}))
	if v.Admits("laptop computers") || v.Admits("smart phones") {
		t.Fatalf("contradictory constraints should admit no type: %v", v.Constraints())
	}
	if len(v.FinalTypes()) != 0 {
		t.Fatal("nothing should survive contradictory constraints")
	}
}

func TestVerdictRuleIDProvenance(t *testing.T) {
	w1 := mustRule(NewWhitelist("laptops?", "laptop computers"))
	w1.ID = "w-laptop"
	w2 := mustRule(NewWhitelist("laptop (bag | case)s?", "laptop bags & cases"))
	w2.ID = "w-laptop-bag"
	bl := mustRule(NewBlacklist("laptop (bag | case)s?", "laptop computers"))
	bl.ID = "b-laptop-bag"
	av := mustRule(NewAttrValue("Brand Name", "apex", []string{"laptop computers", "laptop bags & cases"}))
	av.ID = "c-brand"
	ex := NewSequentialExecutor([]*Rule{w1, w2, bl, av})

	v := ex.Apply(item("apex laptop bag", map[string]string{"Brand Name": "apex"}))
	// All asserting + constraining matches appear in FiredRuleIDs, sorted.
	if got := v.FiredRuleIDs(); len(got) != 3 ||
		got[0] != "c-brand" || got[1] != "w-laptop" || got[2] != "w-laptop-bag" {
		t.Fatalf("FiredRuleIDs = %v", got)
	}
	// The vetoing blacklist rule is named, not just the vetoed type.
	if got := v.VetoingRuleIDs(); len(got) != 1 || got[0] != "b-laptop-bag" {
		t.Fatalf("VetoingRuleIDs = %v", got)
	}

	// No matches: both lists are empty (nil), not panics.
	empty := ex.Apply(item("garden hose", nil))
	if got := empty.FiredRuleIDs(); len(got) != 0 {
		t.Fatalf("FiredRuleIDs on no-match = %v", got)
	}
	if got := empty.VetoingRuleIDs(); len(got) != 0 {
		t.Fatalf("VetoingRuleIDs on no-match = %v", got)
	}

	// Duplicate IDs collapse.
	dup := mustRule(NewWhitelist("hoses?", "garden"))
	dup.ID = "w-dup"
	dup2 := mustRule(NewWhitelist("garden hoses?", "garden"))
	dup2.ID = "w-dup"
	v2 := NewSequentialExecutor([]*Rule{dup, dup2}).Apply(item("garden hose", nil))
	if got := v2.FiredRuleIDs(); len(got) != 1 || got[0] != "w-dup" {
		t.Fatalf("duplicate IDs not collapsed: %v", got)
	}
}

// TestEvidenceOrderIsRuleInputOrder is the evidence-order contract: every
// executor path lists the rules behind a type in rule input order, so an
// item's explanation does not depend on which entry point served it or on how
// Go happened to range over its attribute map. The item draws candidates from
// two attribute postings and one token posting, so posting order alone gives
// an order that differs from the oracle's and varies from call to call.
func TestEvidenceOrderIsRuleInputOrder(t *testing.T) {
	rules := []*Rule{
		mustRule(NewAttrExists("isbn", "books")),
		mustRule(NewAttrExists("author", "books")),
		mustRule(NewWhitelist("novel", "books")),
	}
	for i, r := range rules {
		r.ID = fmt.Sprintf("R%d", i)
	}
	it := item("a great novel", map[string]string{"isbn": "978", "author": "ana"})

	want := NewSequentialExecutor(rules).Apply(it)
	idx := NewIndexedExecutor(rules)
	if got := idx.ApplyBatch([]*catalog.Item{it}, 1)[0]; got.Explain() != want.Explain() {
		t.Fatalf("ApplyBatch explains differently from the oracle:\nseq:   %s\nbatch: %s", want.Explain(), got.Explain())
	}
	for i := 0; i < 200; i++ {
		got := idx.Apply(it)
		if got.Explain() != want.Explain() || !reflect.DeepEqual(got.Evidence("books"), want.Evidence("books")) {
			t.Fatalf("call %d: Apply explains differently from the oracle:\nseq: %s\nidx: %s", i, want.Explain(), got.Explain())
		}
	}
}
