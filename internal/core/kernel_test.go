package core

import (
	"encoding/json"
	"strings"
	"testing"
	"unicode"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// FuzzAttrValueKey checks the one fact value postings rest on: any two
// values strings.EqualFold reports equal get the same attrValueKey, so an
// AttrValue rule is posted under the key of every value it can match. Each
// input is also compared with case-mapped and fold-orbit-shifted copies of
// itself, since random pairs are rarely EqualFold.
func FuzzAttrValueKey(f *testing.F) {
	seeds := [][2]string{
		{"K", "k"},
		{"k", "\u212A"}, // Kelvin sign
		{"Kelvin", "\u212AELVIN"},
		{"\u017F", "s"}, // long s
		{"\u017Ftra\u00DFe", "STRA\u1E9EE"},
		{"\xff", "\uFFFD"}, // invalid UTF-8 decodes as U+FFFD
		{"caf\xe9", "CAF\xc3"},
		{"Acme", "aCME"},
		{"", ""},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], uint8(1))
	}
	f.Fuzz(func(t *testing.T, a, b string, shift uint8) {
		check := func(x, y string) {
			if strings.EqualFold(x, y) && attrValueKey(x) != attrValueKey(y) {
				t.Fatalf("EqualFold(%q, %q) but keys %x != %x", x, y, attrValueKey(x), attrValueKey(y))
			}
		}
		check(a, b)
		orbit := strings.Map(func(r rune) rune {
			for i := uint8(0); i < shift%4; i++ {
				r = unicode.SimpleFold(r)
			}
			return r
		}, a)
		for _, v := range []string{strings.ToUpper(a), strings.ToLower(a), strings.ToTitle(a), orbit} {
			check(a, v)
		}
	})
}

// TestSuccessorRekeysChangedAttrValue: a load can replace an AttrValue rule
// with one of the same ID, kind and attribute but another value. Its posting
// is keyed by the value, so the successor must not share the old postings —
// it would keep proposing the rule for the old value only.
func TestSuccessorRekeysChangedAttrValue(t *testing.T) {
	rb := NewRulebase()
	for _, r := range []*Rule{
		mustRule(NewAttrValue("Brand", "acme", []string{"rings"})),
		mustRule(NewAttrExists("isbn", "books")),
	} {
		if _, err := rb.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	e := NewInstrumentedExecutor(rb.Active(), obs.NewRegistry())
	data, err := json.Marshal(rb)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"value":"acme"`, `"value":"zenith"`, 1)
	if edited == string(data) {
		t.Fatal("the serialized rulebase has no acme value to edit")
	}
	if err := rb.UnmarshalJSON([]byte(edited)); err != nil {
		t.Fatal(err)
	}
	active := rb.Active()
	next, shared := e.Successor(active)
	if shared {
		t.Fatal("a changed AttrValue value must not share the old postings")
	}
	for _, brand := range []string{"Zenith", "acme"} {
		it := &catalog.Item{ID: brand, Attrs: map[string]string{"Title": "gold ring", "Brand": brand}}
		want := NewSequentialExecutor(active).Apply(it)
		if got := next.Apply(it); verdictBytes(t, got) != verdictBytes(t, want) {
			t.Fatalf("Brand %s after the load:\ngot  %s\nwant %s", brand, got.Explain(), want.Explain())
		}
		if brand == "Zenith" && len(want.Constraints()) != 1 {
			t.Fatalf("the reloaded rule should constrain Brand %s", brand)
		}
	}
}

// TestApplyMissAllocatesNothing: an item no rule matches — most items at the
// gate, which holds few rules — costs the kernel no allocation, with or
// without telemetry: candidate gathering uses a stack buffer, attribute
// lookups hash in place, and the verdict is the shared empty one. The item
// draws postings that fail the prefilter and candidates that fail to match,
// and carries attributes the rules post under, with other values.
func TestApplyMissAllocatesNothing(t *testing.T) {
	rules := []*Rule{
		mustRule(NewWhitelist("premium.*ring", "rings")),
		mustRule(NewWhitelist("gold (band | chain)", "jewelry")),
		mustRule(NewBlacklist("toy.*ring", "rings")),
		mustRule(NewAttrValue("Brand Name", "Acme", []string{"rings"})),
		mustRule(NewAttrExists("isbn", "books")),
		mustRule(NewTypeRestrict("(desktop | tower)", []string{"desktop computers"})),
	}
	it := &catalog.Item{ID: "miss", Attrs: map[string]string{
		"Title": "ring premium gold watch", "Brand Name": "Zenith", "Color": "Gold",
	}}
	it.TitleTokens() // tokenized once per item, before the kernel sees it
	for name, e := range map[string]*IndexedExecutor{
		"plain":        NewIndexedExecutor(rules),
		"instrumented": NewInstrumentedExecutor(rules, obs.NewRegistry()),
	} {
		if len(e.Index().CandidatesFor(it)) == 0 {
			t.Fatalf("%s: the item draws no candidate; the test would not exercise matching", name)
		}
		if v := e.Apply(it); len(v.fired) > 0 {
			t.Fatalf("%s: the item should match nothing:\n%s", name, v.Explain())
		}
		if n := testing.AllocsPerRun(100, func() { e.Apply(it) }); n != 0 {
			t.Fatalf("%s: Apply on a miss allocates %.1f times, want 0", name, n)
		}
	}
}
