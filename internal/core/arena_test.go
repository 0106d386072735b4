package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// benchShapeRules returns n rules of the root package's benchmark shape
// (addBenchRules in bench_test.go) over a 250-type catalog: every type's head
// terms and synonyms as whitelists, then head-anchored <qualifier><i>.*<head>
// whitelists with an AttrValue brand rule every tenth, until n.
func benchShapeRules(n int) []*Rule {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	var rules []*Rule
	add := func(r *Rule, err error) {
		if err == nil && len(rules) < n {
			r.ID = fmt.Sprintf("B%05d", len(rules))
			rules = append(rules, r)
		}
	}
	types := cat.Types()
	for _, ty := range types {
		for _, h := range ty.HeadTerms {
			add(NewWhitelist(h.Text, ty.Name))
		}
		for _, s := range ty.Synonyms {
			add(NewWhitelist(s.Text, ty.Name))
		}
	}
	for i := 0; len(rules) < n; i++ {
		ty, other := types[i%len(types)], types[(i/len(types))%len(types)]
		if i%10 == 9 {
			add(NewAttrValue("Brand", "brand"+strconv.Itoa(i), []string{ty.Name}))
			continue
		}
		add(NewWhitelist(strings.Fields(other.Name)[0]+strconv.Itoa(i/len(types))+".*"+ty.HeadTerms[0].Text, ty.Name))
	}
	return rules
}

// arenaBytes returns the bytes the index's arena holds: its words and its
// per-slot offsets.
func arenaBytes(idx *RuleIndex) int {
	return len(idx.arena.words)*int(unsafe.Sizeof(uint16(0))) + len(idx.arena.off)*int(unsafe.Sizeof(uint32(0)))
}

// maxArenaBytesPerRule bounds the arena per posted pattern rule at the
// benchmark shape (DESIGN.md states the figure): a meta word, a two- or
// three-element program of one or two alternatives each, and a 4-byte offset.
const maxArenaBytesPerRule = 20

// TestArenaBytesPerPatternRule holds the arena's size at the 10,000-rule
// benchmark shape and checks that every pattern rule there got a program.
func TestArenaBytesPerPatternRule(t *testing.T) {
	rules := benchShapeRules(10000)
	idx := NewRuleIndex(rules)
	patterns := 0
	for s, r := range idx.keyed {
		if !r.IsPatternKind() {
			continue
		}
		patterns++
		if _, ok := idx.arena.program(int32(s)); !ok {
			t.Fatalf("pattern rule %s (%s) has no program", r.ID, r.Source)
		}
	}
	per := float64(arenaBytes(idx)) / float64(patterns)
	t.Logf("%d rules, %d pattern rules, %d dictionary tokens: arena %d bytes, %.2f per pattern rule",
		len(rules), patterns, len(idx.dict), arenaBytes(idx), per)
	if per > maxArenaBytesPerRule {
		t.Fatalf("arena holds %.2f bytes per pattern rule, bound %d", per, maxArenaBytesPerRule)
	}
}

// TestSuccessorSharesDictionaryAndArena: a successor after a disable, an
// enable or a confidence change is a reslot, and shares its parent's
// dictionary and arena — the same map and the same arrays, not copies.
func TestSuccessorSharesDictionaryAndArena(t *testing.T) {
	rb := NewRulebase()
	if err := rb.AddAll(benchShapeRules(2000), "ana"); err != nil {
		t.Fatal(err)
	}
	e := NewInstrumentedExecutor(rb.Active(), obs.NewRegistry())
	id := rb.Active()[1500].ID
	steps := []struct {
		name string
		do   func() error
	}{
		{"disable", func() error { return rb.Disable(id, "ana", "") }},
		{"enable", func() error { return rb.Enable(id, "ana", "") }},
		{"confidence", func() error { return rb.UpdateConfidence(id, 0.5, "ana") }},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatal(err)
		}
		next, shared := e.Successor(rb.Active())
		if !shared {
			t.Fatalf("%s: the successor should be a reslot", st.name)
		}
		a, b := e.Index(), next.Index()
		if a.postings != b.postings ||
			unsafe.Pointer(&a.arena.words[0]) != unsafe.Pointer(&b.arena.words[0]) ||
			unsafe.Pointer(&a.arena.off[0]) != unsafe.Pointer(&b.arena.off[0]) {
			t.Fatalf("%s: the successor does not share the dictionary and arena", st.name)
		}
		e = next
	}
}

// TestSuccessorGuardedDeadSlots: a reslotted index with dead slots and a
// guarded rule gives the verdicts of a fresh build over the same rules, and
// reads each guard from the live rule in its slot, not from the rule the
// arena was compiled from.
func TestSuccessorGuardedDeadSlots(t *testing.T) {
	rules := []*Rule{
		mustRule(NewWhitelist("premium.*rings?", "rings")),
		mustRule(NewWhitelist("gold (band | chain)", "jewelry")),
		mustRule(NewBlacklist("toy.*rings?", "rings")),
		mustRule(NewWhitelist("pick[ -]?up (oil | lubricant)s?", "oils")),
		mustRule(NewWhitelist("diamond.*trio sets?", "rings")),
		mustRule(NewWhitelist("apple", "phones")),
		mustRule(NewAttrValue("Brand", "acme", []string{"rings", "oils"})),
	}
	for i := 0; i < 16; i++ {
		rules = append(rules, mustRule(NewWhitelist(fmt.Sprintf("filler%d.*widgets?", i), "widgets")))
	}
	for i, r := range rules {
		r.ID = fmt.Sprintf("G%02d", i)
	}
	e := NewIndexedExecutor(rules)

	// The successor: rule 2 disabled (a dead slot), and rule 5 replaced by a
	// copy that shares its compiled pattern but carries a price guard.
	guarded := rules[5].Clone()
	if _, err := guarded.WithGuards(Guard{Attr: "Price", Op: "<", Value: "100"}); err != nil {
		t.Fatal(err)
	}
	live := append([]*Rule{rules[0], rules[1]}, rules[3:]...)
	live[4] = guarded
	next, shared := e.Successor(live)
	if !shared || next.Index().dead != 1 {
		t.Fatalf("want a reslot with one dead slot, got shared %v, dead %d", shared, next.Index().dead)
	}
	fresh := NewIndexedExecutor(live)
	seq := NewSequentialExecutor(live)
	titles := []string{
		"premium gold rings", "toy ring premium", "pick up lubricants", "pickup oil",
		"diamond ring trio set", "diamond trio", "apple case", "apple iphone deluxe",
		"gold chain toy rings filler3 widget", "",
		strings.Repeat("premium ", 70) + "ring apple", // past pattern.MaxProgramTitle
	}
	fired := false
	for _, title := range titles {
		for _, price := range []string{"12.99", "450"} {
			it := item(title, map[string]string{"Price": price, "Brand": "ACME"})
			want := seq.Apply(it)
			for name, ex := range map[string]*IndexedExecutor{"successor": next, "fresh": fresh} {
				if got := ex.Apply(it); verdictBytes(t, got) != verdictBytes(t, want) || got.Explain() != want.Explain() {
					t.Fatalf("%s on %q at %s:\ngot  %s\nwant %s", name, title, price, got.Explain(), want.Explain())
				}
			}
			apple := strings.Contains(title, "apple")
			if asserted := len(want.AssertedBy("phones")) > 0; apple && asserted != (price == "12.99") {
				t.Fatalf("%q at %s: the live rule's guard decides, asserted = %v", title, price, asserted)
			}
			fired = fired || len(want.fired) > 0
		}
	}
	if !fired {
		t.Fatal("no title matched a rule; the test exercises nothing")
	}
}

// TestProgramFallbacks covers the rules a program cannot decide: a pattern
// whose element needs more words than a header can count, and patterns with a
// token whose dictionary ID is past pattern.MaxProgramID (the dictionary keeps
// numbering; only the programs stop). A title token numbered past 65,535 must
// not alias a small ID when the title is interned.
func TestProgramFallbacks(t *testing.T) {
	var rules []*Rule
	// 256 groups of 256 single-token alternatives: over 65,536 dictionary
	// tokens, so the later groups' tokens are past MaxProgramID.
	for g := 0; g < 256; g++ {
		alts := make([]string, 256)
		for a := range alts {
			alts[a] = fmt.Sprintf("g%da%d", g, a)
		}
		rules = append(rules, mustRule(NewWhitelist("("+strings.Join(alts, " | ")+") widgets?", fmt.Sprintf("type%d", g))))
	}
	// 256 alternatives of 64 tokens: a 16,384-word element.
	alts := make([]string, 256)
	for a := range alts {
		alts[a] = strings.Join(seqWords(a*64, a*64+64), " ")
	}
	rules = append(rules, mustRule(NewWhitelist("huge ("+strings.Join(alts, " | ")+")", "huge")))
	for i, r := range rules {
		r.ID = fmt.Sprintf("F%03d", i)
	}
	idx := NewRuleIndex(rules)
	programs := 0
	for s := range idx.keyed {
		if _, ok := idx.arena.program(int32(s)); ok {
			programs++
		}
	}
	if _, ok := idx.arena.program(0); !ok || programs == 0 || programs >= 256 {
		t.Fatalf("%d of %d slots have a program; want the first groups only", programs, len(idx.keyed))
	}
	if _, ok := idx.arena.program(256); ok {
		t.Fatal("the 16,384-word element got a program")
	}
	e := NewIndexedExecutor(rules)
	seq := NewSequentialExecutor(rules)
	titles := []string{
		"g0a0 widget", "g200a7 widgets", "g255a255 widget g0a0", "g100a3 g101a4 widget",
		"huge w64 w65 w66", "huge " + strings.Join(seqWords(128, 192), " "),
	}
	for _, title := range titles {
		it := item(title, nil)
		want := seq.Apply(it)
		if got := e.Apply(it); verdictBytes(t, got) != verdictBytes(t, want) {
			t.Fatalf("%q:\ngot  %s\nwant %s", title, got.Explain(), want.Explain())
		}
	}
	id := idx.dict["g255a255"]
	alias := uint16(id)
	if id <= 0xFFFF || alias == 0 || alias > pattern.MaxProgramID {
		t.Fatalf("g255a255 has ID %d; the test needs one past 65,535 that truncates to a program ID", id)
	}
	var title pattern.IDTitle
	_ = idx.candidateSlots(item("g255a255", nil), nil, &title)
	if m, _ := pattern.MatchProgram([]uint16{1, 0x8000 | alias}, &title); m {
		t.Fatalf("a token numbered %d was interned as program ID %d", id, alias)
	}
}

// seqWords returns the tokens w<lo> … w<hi-1>.
func seqWords(lo, hi int) []string {
	var out []string
	for i := lo; i < hi; i++ {
		out = append(out, "w"+strconv.Itoa(i))
	}
	return out
}
