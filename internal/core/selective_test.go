package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/tokenize"
)

// TestSelectiveIndexEquivalenceProperty is the oracle check for the selective
// index at the benchmark's scale: over 10,000 head-anchored rules plus one of
// every awkward rule shape, and over catalog titles plus every awkward title
// shape, Sequential ≡ Apply ≡ ApplyBatch, with and without telemetry — same
// verdicts, same explanations, byte for byte. SequentialExecutor consults neither the posting keys nor the
// signature prefilter, so agreement with it shows both only ever dropped
// rules that could not match.
func TestSelectiveIndexEquivalenceProperty(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 20150531, NumTypes: 250})
	rules := headAnchoredRules(t, cat, 10000, 48)

	extra := []*Rule{
		mustRule(NewWhitelist("wedding (band | ring)? sets?", "rings")),               // optional element
		mustRule(NewWhitelist("(trio set | ring) (box | case)s?", "jewelry storage")), // multi-token alternative
		mustRule(NewWhitelist(`(\w+) (\w+)`, "anything")),                             // wildcard-only: no masks
		mustRule(NewBlacklist(`premium (\w+) oils?`, "motor oil")),
		mustRule(NewBlacklist("toy", "rings")),
		mustRule(NewGate("pick[ -]?up (oil | lubricant)s?", "motor oil")),
		mustRule(NewTypeRestrict("(desktop | tower | workstation)", []string{"desktop computers", "laptop computers"})),
		mustRule(NewAttrExists("isbn", "books")),
		mustRule(NewAttrValue("Brand", "acme", []string{"rings", "motor oil"})),
		mustRule(mustRule(NewBlacklist("premium", "rings")).WithGuards(Guard{Attr: "Price", Op: "<", Value: "100"})),
		mustRule(mustRule(NewAttrExists("Material", "rings")).WithGuards(Guard{Attr: "Material", Op: "contains", Value: "gold"})),
		// Probe shapes: a third witness set (the full test runs after the
		// probe), and an other set with more bits than the probe carries.
		mustRule(NewWhitelist("(red | blue | green | black | white) velvet (box | case)", "jewelry storage")),
		mustRule(NewWhitelist("(red | blue | green | black | white).*velvet", "fabric")),
		// Attribute rules whose names and values differ in case from the
		// items': names match exactly, values under strings.EqualFold —
		// Kelvin sign, long s, capital sharp s and invalid UTF-8 included.
		mustRule(NewAttrExists("Color", "paint")),
		mustRule(NewAttrValue("Brand", "ACME", []string{"rings", "paint"})),
		mustRule(NewAttrValue("brand", "acme", []string{"motor oil"})),
		mustRule(NewAttrValue("Maker", "\u212Aelvin", []string{"paint"})),
		mustRule(NewAttrValue("Street", "\u017Ftra\u00DFe", []string{"paint"})),
		mustRule(NewAttrValue("Origin", "caf\xe9", []string{"paint"})),
		// A rule still carrying its \syn slot cannot come out of a
		// constructor; the index must cope with one all the same (the slot
		// contributes no witness, its golden synonyms still match).
		{Kind: Whitelist, Source: `(motor | engine | \syn) oils?`, TargetType: "motor oil", Confidence: 1,
			compiled: pattern.MustParse(`(motor | engine | \syn) oils?`)},
	}
	for i, r := range extra {
		r.ID = fmt.Sprintf("X%02d", i)
	}
	rules = append(rules, extra...)

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 300})
	var saturated []string // far more distinct tokens than bits: every signature bit set
	for i := 0; i < 600; i++ {
		saturated = append(saturated, fmt.Sprintf("tok%d", i))
	}
	saturated = append(saturated, "premium", "gold", "ring")
	for i, attrs := range []map[string]string{
		{"Title": ""},
		{}, // no title at all
		{"Title": strings.Join(saturated, " ")},
		{"Title": "ring ring ring ring"},
		{"Title": "premium premium ring", "Price": "40"},
		{"Title": "premium gold ring", "Price": "400", "Brand": "acme"},
		{"Title": "wedding sets"},
		{"Title": "wedding band set", "Material": "white gold"},
		{"Title": "trio set box"},
		{"Title": "ring cases", "Material": "steel"},
		{"Title": "toy ring trio set case"},
		{"Title": "premium synthetic oil"},
		{"Title": "pickup lubricants", "isbn": "978"},
		{"Title": "pick up oil"},
		{"Title": "engine oils", "brand": "acme"},
		{"Title": "tower workstation premium"},
		{"Title": "single"},
		{"Title": "black velvet case"},
		{"Title": "velvet case white"},
		{"Title": "green and white velvet"},
		{"Title": "gold ring", "Brand": "AcMe", "Color": "red"},
		{"Title": "plain widget", "color": "red", "Maker": "KELVIN"},
		{"Title": "plain widget", "maker": "kelvin", "Street": "STRASSE"},
		{"Title": "plain widget", "Street": "STRA\u1E9EE", "Origin": "CAF\uFFFD"},
		{"Title": "plain widget", "Origin": "caf\xc3", "Brand": "acme\u212A"},
	} {
		items = append(items, &catalog.Item{ID: fmt.Sprintf("edge%d", i), Attrs: attrs})
	}
	if sig := items[302].TitleSignature(); sig != ^uint64(0) {
		t.Fatalf("the long title should saturate the signature, got %064b", sig)
	}

	seq := NewSequentialExecutor(rules)
	idx := NewIndexedExecutor(rules)
	inst := NewInstrumentedExecutor(rules, obs.NewRegistry())

	want := ExecuteBatchItemwise(seq, items, 1)
	batches := map[string][]*Verdict{
		"batch/1":              idx.ApplyBatch(items, 1),
		"batch/3":              idx.ApplyBatch(items, 3),
		"instrumented batch/3": inst.ApplyBatch(items, 3),
	}
	matchedSomething := 0
	for i, it := range items {
		w := want[i]
		if len(w.fired) > 0 {
			matchedSomething++
		}
		// Every path absorbs in rule input order: byte-identical to the oracle.
		got := map[string]*Verdict{"apply": idx.Apply(it), "instrumented apply": inst.Apply(it)}
		for name, vs := range batches {
			got[name] = vs[i]
		}
		for name, v := range got {
			if verdictBytes(t, v) != verdictBytes(t, w) || v.Explain() != w.Explain() {
				t.Fatalf("%s diverges from sequential on %q:\nseq: %s\ngot: %s", name, it.Title(), w.Explain(), v.Explain())
			}
		}
	}
	if matchedSomething < len(items)/2 {
		t.Fatalf("fixture is too quiet to test anything: only %d of %d items match a rule", matchedSomething, len(items))
	}

	// What the two steps buy on this fixture, and the signature's
	// false-positive rate: of the posted rules that do NOT have every witness
	// set present in the title, how many the 64-bit test lets through.
	var posted, passed, exact int
	ix := idx.Index()
	for _, it := range items {
		present := tokenize.TokenSet(it.TitleTokens())
		for tok := range present {
			for _, p := range ix.postingsOf(tok) {
				r := ix.rules[p.slot]
				posted++
				all := true
				for _, ws := range r.Pattern().RequiredAlternatives() {
					hit := false
					for _, w := range ws {
						hit = hit || present[w]
					}
					all = all && hit
				}
				if all {
					exact++
				}
				if r.Pattern().MayMatch(it.TitleSignature()) {
					passed++
				}
			}
		}
	}
	n := float64(len(items))
	t.Logf("%d rules, %d items: posted %.1f/item, passed the signature %.1f/item, all witnesses really present %.1f/item; signature false-positive rate %.3f",
		len(rules), len(items), float64(posted)/n, float64(passed)/n, float64(exact)/n,
		float64(passed-exact)/float64(posted-exact))
	if passed < exact {
		t.Fatalf("signature rejected a rule whose witnesses are all present: passed %d < exact %d", passed, exact)
	}
}
