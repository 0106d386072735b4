package core

import (
	"fmt"
	"slices"
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

	seq := NewSequentialExecutor(rules)
	idx := NewIndexedExecutor(rules)
	inst := NewInstrumentedExecutor(rules, obs.NewRegistry())
	ix := idx.Index()

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 300})
	catalogItems := items
	// Far more distinct tokens than bits, most of them unknown to the
	// dictionary (they set no bit) and one dictionary token per bit: every
	// signature bit set.
	var saturated []string
	for i := 0; i < 600; i++ {
		saturated = append(saturated, fmt.Sprintf("tok%d", i))
	}
	perBit := make([]string, 64)
	for tok, id := range ix.dict {
		if b := id & 63; perBit[b] == "" || tok < perBit[b] {
			perBit[b] = tok
		}
	}
	saturated = append(saturated, perBit...)
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
	if sig := indexSignature(ix, items[302]); sig != ^uint64(0) {
		t.Fatalf("the long title should saturate the signature, got %064b", sig)
	}

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

	// What the two steps buy on catalog titles, and the signature's
	// false-positive rate: of the posted rules that do NOT have every witness
	// set present in the title, how many the 64-bit test lets through.
	var posted, passed, exact int
	for _, it := range catalogItems {
		sig := indexSignature(ix, it)
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
				if ix.admits(p, sig) {
					passed++
				} else if all {
					t.Fatalf("the prefilter rejected %q on %q, whose witness sets are all present", r.Source, it.Title())
				}
			}
		}
	}
	n := float64(len(catalogItems))
	t.Logf("%d rules, %d catalog items: posted %.1f/item, passed the signature %.1f/item, all witnesses really present %.1f/item; signature false-positive rate %.3f",
		len(rules), len(catalogItems), float64(posted)/n, float64(passed)/n, float64(exact)/n,
		float64(passed-exact)/float64(posted-exact))
}

// TestSignatureIgnoresTokensOutsideDictionary: the title signature is built
// from dictionary IDs, so a title token no rule mentions sets no bit and
// cannot carry a rule past the prefilter by colliding with one of its witness
// tokens. The fixture's "velvet102" is such a collision under a string hash of
// the tokens: it shares "diamond"'s bit there, and diamond is the set the
// posting's probe tests (the rule posts under "trio").
func TestSignatureIgnoresTokensOutsideDictionary(t *testing.T) {
	rules := []*Rule{
		mustRule(NewWhitelist("diamond.*trio sets?", "rings")),
		mustRule(NewWhitelist("rings?", "rings")),
	}
	for i, r := range rules {
		r.ID = fmt.Sprintf("D%d", i)
	}
	idx := NewIndexedExecutor(rules)
	seq := NewSequentialExecutor(rules)
	ix := idx.Index()
	if _, ok := ix.dict["velvet102"]; ok {
		t.Fatal("fixture void: velvet102 is in the dictionary")
	}
	for _, tc := range []struct {
		title     string
		candidate bool
	}{
		{"trio set velvet102", false},
		{"trio set only", false}, // every witness set must be hit, not just the posting's
		{"velvet102 ring trio sets", false},
		{"diamond ring trio set", true},
		{"trio sets diamond", true}, // the prefilter ignores order; the program rejects it
	} {
		it := item(tc.title, nil)
		if got := slices.Contains(ix.CandidatesFor(it), rules[0]); got != tc.candidate {
			t.Errorf("%q: %s is a candidate = %v, want %v", tc.title, rules[0].Source, got, tc.candidate)
		}
		if got, want := idx.Apply(it), seq.Apply(it); verdictBytes(t, got) != verdictBytes(t, want) {
			t.Errorf("%q:\ngot  %s\nwant %s", tc.title, got.Explain(), want.Explain())
		}
	}
}

// indexSignature is the signature candidateSlots tests an item's postings
// against: the bits of its title tokens that are in the dictionary.
func indexSignature(idx *RuleIndex, it *catalog.Item) uint64 {
	var sig uint64
	for _, tok := range it.TitleTokens() {
		if id := idx.dict[tok]; id != 0 {
			sig |= idBit(id)
		}
	}
	return sig
}
