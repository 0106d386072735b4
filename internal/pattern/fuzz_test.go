package pattern

import (
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/tokenize"
)

// FuzzParseRule drives arbitrary byte soup through the rule-pattern parser —
// the path every analyst-authored rule takes on its way into the rulebase
// (§3.3) — and checks three invariants:
//
//  1. Parse never panics: it either returns a pattern or an error.
//  2. A successfully parsed pattern never panics when matched against an
//     arbitrary tokenized title.
//  3. The canonical form round-trips: String() must itself parse, and the
//     reparsed pattern must agree with the original on the fuzzed title.
//     (Canonical text is what audit logs and the §5.1 synonym tool consume,
//     so a canonical form that fails to reparse would corrupt maintenance.)
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"rings?",
		"diamond.*trio sets?",
		"(motor | engine) oils?",
		"(motor | engine | \\syn) oils?",
		"(abrasive|sand(er|ing))[ -](wheels?|discs?)",
		"pick[ -]?up (oil | lubricant)s?",
		"(\\w+) oils?",
		"(\\w+\\s+\\w+) oils?",
		"denim.*jeans?",
		"a(b|c)?d",
		"((a|b) (c|d))?e",
		"\\s+",
		"(((((x)))))",
		"a|b|c|d|e|f|g|h",
		"[-- ]bad[class",
		"(unclosed",
		"",
		"   ",
		".*",
		"\\syn",
	}
	titles := []string{
		"acme motor oils",
		"pick up lubricant s",
		"diamond ring trio set",
		"",
	}
	for _, s := range seeds {
		for _, ttl := range titles {
			f.Add(s, ttl)
		}
	}
	f.Fuzz(func(t *testing.T, src, title string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatalf("Parse(%q) returned nil pattern and nil error", src)
		}
		toks := tokenize.Tokenize(title)
		got := p.Match(toks)

		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form does not reparse: Parse(%q)=%v (original %q)",
				canon, err, src)
		}
		if got2 := p2.Match(toks); got2 != got {
			t.Fatalf("canonical form disagrees: %q matched %v, reparsed %q matched %v on %q",
				src, got, canon, got2, title)
		}
		// Canonicalization must be a fixpoint: String of the reparse equals
		// the first canonical form.
		if canon2 := p2.String(); canon2 != canon {
			t.Fatalf("canonical form not stable: %q -> %q -> %q", src, canon, canon2)
		}
	})
}

// FuzzWitnessSound checks the one fact both halves of the rule index rest on
// (posting under a witness set, and the signature prefilter over the sets'
// tokens): for any parsable pattern and any token list,
//
//	Match(tokens)  ⇒  every RequiredAlternatives() set has a token in tokens
//
// Random (pattern, title) pairs rarely match, so each parsable pattern is
// also checked against a title GenerateMatch builds for it from the fuzzed
// tokens — the antecedent holds on every iteration, not just on lucky ones.
func FuzzWitnessSound(f *testing.F) {
	seeds := [][2]string{
		{"rings?", "gold ring"},
		{"diamond.*trio sets?", "diamond ring trio set"},
		{"diamond.*trio sets?", "trio set diamond"},
		{"(motor | engine) oils?", "acme motor oils"},
		{"(motor | engine | \\syn) oils?", "engine oil"},
		{"(abrasive|sand(er|ing))[ -](wheels?|discs?)", "sanding disc 5 pack"},
		{"pick[ -]?up (oil | lubricant)s?", "pick up lubricants"},
		{"wedding (band | ring)? set", "wedding set"},
		{"(\\w+) oils?", "olive oil"},
		{"(\\w+\\s+\\w+)", "a b"},
		{"(trio set | ring) box", "trio set box"},
		{"a.*a", "a a"},
		{"\\syn", "anything"},
		{"premium.*ring", ""},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], uint64(1))
	}
	f.Fuzz(func(t *testing.T, src, title string, seed uint64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		tokens := strings.Fields(title)
		checkWitnessSound(t, p, tokens)
		vocab := tokens
		if len(vocab) == 0 {
			vocab = []string{"filler"}
		}
		gen := p.GenerateMatch(randx.New(seed), vocab)
		if !p.Match(gen) {
			t.Fatalf("GenerateMatch(%q) built a non-match: %q", src, gen)
		}
		checkWitnessSound(t, p, gen)
	})
}

func checkWitnessSound(t *testing.T, p *Pattern, tokens []string) {
	t.Helper()
	if !p.Match(tokens) {
		return
	}
	present := tokenize.TokenSet(tokens)
	for i, ws := range p.RequiredAlternatives() {
		hit := false
		for _, w := range ws {
			hit = hit || present[w]
		}
		if !hit {
			t.Fatalf("%q matches %q but witness set %d %q is not hit", p.Raw(), tokens, i, ws)
		}
	}
}
