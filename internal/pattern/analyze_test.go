package pattern

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/randx"
	"repro/internal/tokenize"
)

func TestRequiredAlternatives(t *testing.T) {
	p := MustParse("(motor | engine) oils?")
	req := p.RequiredAlternatives()
	if len(req) != 2 {
		t.Fatalf("want 2 witness sets, got %v", req)
	}
	if !reflect.DeepEqual(req[0], []string{"motor", "engine"}) {
		t.Fatalf("bad first witness set: %v", req[0])
	}
	if !reflect.DeepEqual(req[1], []string{"oil", "oils"}) {
		t.Fatalf("bad second witness set: %v", req[1])
	}
}

func TestRequiredAlternativesSkipsOptionalAndWildcard(t *testing.T) {
	p := MustParse(`(\w+) (band | ring)? sets?`)
	req := p.RequiredAlternatives()
	if len(req) != 1 {
		t.Fatalf("only the mandatory literal should contribute: %v", req)
	}
	if !reflect.DeepEqual(req[0], []string{"set", "sets"}) {
		t.Fatalf("bad witness: %v", req[0])
	}
	// Pure wildcards and all-\syn patterns have no witness set at all: a
	// rule index must scan them unconditionally.
	for _, src := range []string{`(\w+) (\w+)`, `\syn`} {
		if w := MustParse(src).RequiredAlternatives(); w != nil {
			t.Fatalf("%q must have no witness sets: %v", src, w)
		}
	}
}

func TestRequiredAlternativesMultiTokenUsesFirstToken(t *testing.T) {
	p := MustParse("(trio set | ring)")
	req := p.RequiredAlternatives()
	if !reflect.DeepEqual(req[0], []string{"trio", "ring"}) {
		t.Fatalf("multi-token alt should contribute its first token: %v", req)
	}
}

func TestRequiredAlternativesCachedAndDeduplicated(t *testing.T) {
	// Two alternatives with the same first token contribute it once.
	p := MustParse("(a b | a c | d) oils?")
	req := p.RequiredAlternatives()
	if !reflect.DeepEqual(req, [][]string{{"a", "d"}, {"oil", "oils"}}) {
		t.Fatalf("witness sets wrong: %v", req)
	}
	// Computed once at Parse: every call returns the same backing arrays.
	again := p.RequiredAlternatives()
	if &again[0][0] != &req[0][0] {
		t.Fatal("RequiredAlternatives must return the cached sets, not rebuild them")
	}
	// WithSynExpanded builds a pattern without going through Parse; it must
	// be analyzed too.
	syn := MustParse(`(motor | engine | \syn) oils?`).WithSynExpanded([][]string{{"car"}})
	if got := syn.RequiredAlternatives(); !reflect.DeepEqual(got, [][]string{{"motor", "engine", "car"}, {"oil", "oils"}}) {
		t.Fatalf("expanded pattern has stale witnesses: %v", got)
	}
}

func TestSubsumesPaperExamples(t *testing.T) {
	// §4: "denim.*jeans? → Jeans" is subsumed by "jeans? → Jeans".
	general := MustParse("jeans?")
	specific := MustParse("denim.*jeans?")
	if !Subsumes(general, specific) {
		t.Error("jeans? should subsume denim.*jeans?")
	}
	if Subsumes(specific, general) {
		t.Error("denim.*jeans? must not subsume jeans?")
	}
}

func TestSubsumesIdentity(t *testing.T) {
	p := MustParse("(motor | engine) oils?")
	q := MustParse("(motor | engine) oils?")
	if !Subsumes(p, q) || !Subsumes(q, p) {
		t.Error("identical patterns should subsume each other")
	}
}

func TestSubsumesAlternativeSubset(t *testing.T) {
	general := MustParse("(motor | engine | car) oils?")
	specific := MustParse("(motor | engine) oils?")
	if !Subsumes(general, specific) {
		t.Error("superset alternatives should subsume subset alternatives")
	}
	if Subsumes(specific, general) {
		t.Error("subset alternatives must not subsume superset")
	}
}

func TestSubsumesAdjacencyVsGap(t *testing.T) {
	adjacent := MustParse("trio set")
	gapped := MustParse("trio.*set")
	if !Subsumes(gapped, adjacent) {
		t.Error("gap version should subsume adjacent version")
	}
	if Subsumes(adjacent, gapped) {
		t.Error("adjacent version must not subsume gap version")
	}
}

func TestSubsumesWildcardGeneral(t *testing.T) {
	general := MustParse(`(\w+) oils?`)
	specific := MustParse("motor oils?")
	if !Subsumes(general, specific) {
		t.Error("\\w+ oils? should subsume motor oils?")
	}
	if Subsumes(specific, general) {
		t.Error("motor oils? must not subsume \\w+ oils?")
	}
}

func TestSubsumesRejectsSynPatterns(t *testing.T) {
	a := MustParse(`(motor | \syn) oils?`)
	b := MustParse("motor oils?")
	if Subsumes(a, b) || Subsumes(b, a) {
		t.Error("syn patterns must never be reported as subsuming (sound bail-out)")
	}
}

func TestSubsumesOptionalOnSpecificSide(t *testing.T) {
	general := MustParse("wedding set")
	specific := MustParse("wedding (deluxe)? set")
	// specific's variants are {wedding set, wedding deluxe set}; the variant
	// with "deluxe" breaks g's adjacency, so no subsumption.
	if Subsumes(general, specific) {
		t.Error("adjacency must not subsume the optional-token variant")
	}
	gapGeneral := MustParse("wedding.*set")
	if !Subsumes(gapGeneral, specific) {
		t.Error("gap version should subsume both optional variants")
	}
}

func TestSubsumesSoundnessProperty(t *testing.T) {
	// Whenever Subsumes(general, specific) is true, every generated match of
	// specific must be matched by general.
	pairs := []struct{ g, s string }{
		{"jeans?", "denim.*jeans?"},
		{"(motor | engine | car) oils?", "(motor | engine) oils?"},
		{"trio.*set", "trio set"},
		{`(\w+) oils?`, "motor oils?"},
		{"wedding.*set", "wedding (deluxe)? set"},
		{"abrasive.*(wheels?|discs?)", "(abrasive)[ -](wheels?|discs?)"},
	}
	vocab := []string{"x", "y", "z", "denim", "jean", "motor", "oil", "set"}
	r := randx.New(7)
	for _, pr := range pairs {
		g, s := MustParse(pr.g), MustParse(pr.s)
		if !Subsumes(g, s) {
			t.Errorf("expected %q to subsume %q", pr.g, pr.s)
			continue
		}
		for i := 0; i < 300; i++ {
			title := s.GenerateMatch(r, vocab)
			if !g.Match(title) {
				t.Fatalf("soundness violated: %v matches %q but not %q", title, pr.s, pr.g)
			}
		}
	}
}

func TestGenerateMatchAlwaysMatchesProperty(t *testing.T) {
	srcs := []string{
		"rings?",
		"diamond.*trio sets?",
		"(motor | engine) oils?",
		"(abrasive|sand(er|ing))[ -](wheels?|discs?)",
		"wedding (band | ring)? set",
		`(\w+) oils?`,
		`(motor | \syn) oils?`,
	}
	vocab := []string{"a", "b", "c", "d", "e"}
	f := func(seed uint64) bool {
		r := randx.New(seed)
		for _, src := range srcs {
			p := MustParse(src)
			if !p.Match(p.GenerateMatch(r, vocab)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapEstimate(t *testing.T) {
	r := randx.New(3)
	vocab := []string{"x", "y", "z", "denim", "blue"}
	general := MustParse("jeans?")
	specific := MustParse("denim.*jeans?")
	bGivenA, aGivenB := OverlapEstimate(r, general, specific, vocab, 300)
	if aGivenB != 1 {
		t.Fatalf("every denim-jeans match is a jeans match; got %v", aGivenB)
	}
	if bGivenA > 0.9 {
		t.Fatalf("most plain jeans matches lack denim; got %v", bGivenA)
	}
}

func TestOverlapEstimateSignificantOverlap(t *testing.T) {
	// The paper's overlapping pair: (abrasive|sand(er|ing))[ -](wheels?|discs?)
	// vs abrasive.*(wheels?|discs?).
	r := randx.New(4)
	vocab := []string{"kit", "pack", "grit", "inch"}
	a := MustParse("(abrasive|sand(er|ing))[ -](wheels?|discs?)")
	b := MustParse("abrasive.*(wheels?|discs?)")
	bGivenA, aGivenB := OverlapEstimate(r, a, b, vocab, 400)
	// a picks "abrasive" for ~1/3 of its matches (vs sander/sanding), and b's
	// gap accepts the adjacency, so P(b|a) ≈ 1/3; b inserts 0 gap tokens ~1/3
	// of the time, so P(a|b) ≈ 1/3. Both overlaps are partial but
	// significant — exactly the §4 "significantly overlapping rules" case.
	if bGivenA < 0.1 || bGivenA > 0.7 {
		t.Fatalf("partial overlap expected a→b, got %v", bGivenA)
	}
	if aGivenB < 0.1 || aGivenB > 0.7 {
		t.Fatalf("partial overlap expected b→a, got %v", aGivenB)
	}
}

func TestMatchDoesNotPanicOnArbitraryTokens(t *testing.T) {
	p := MustParse("(motor | engine) oils?")
	f := func(tokens []string) bool {
		_ = p.Match(tokens)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizerPatternAgreement(t *testing.T) {
	// Patterns are matched against tokenize.Tokenize output; parsing a title
	// through the tokenizer and matching must agree with intuition on mixed
	// punctuation.
	p := MustParse("pick[ -]?up trucks?")
	for _, title := range []string{"Pick-Up Truck toy", "pickup truck red", "pick up trucks"} {
		if !p.Match(tokenize.Tokenize(title)) {
			t.Errorf("should match %q", title)
		}
	}
}
