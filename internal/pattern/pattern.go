// Package pattern implements the analyst rule-pattern language of the paper:
// the "relatively simple regexes" applied to product titles by whitelist and
// blacklist rules (§3.3), including every construct appearing in the paper's
// examples:
//
//	rings?
//	diamond.*trio sets?
//	(motor | engine) oils?
//	(motor | engine | \syn) oils?                          (§5.1 tool input)
//	(abrasive|sand(er|ing))[ -](wheels?|discs?)
//	(motor | engine | auto(motive)? | car | ... | pick[ -]?up) (oil | lubricant)s?
//	denim.*jeans?
//	(\w+) oils?   /   (\w+\s+\w+) oils?                    (generalized regexes)
//
// Rather than compiling to character-level regexp, patterns are parsed into a
// token-level AST and matched against tokenized titles. Matching a pattern is
// therefore alignment of token sequences, which is what makes the static
// analyses the paper's §4 maintenance agenda needs — subsumption, overlap,
// required-token extraction for rule indexing (§5.3) — tractable.
//
// Semantics. A pattern is a sequence of elements separated either by
// adjacency (whitespace, \s+, or a separator class such as [ -]) or by a gap
// (.*, matching any number of intervening tokens). Matching is unanchored:
// the pattern may match anywhere inside the title, exactly like the paper's
// "title matches the regular expression r" reading. Elements are:
//
//   - literal alternatives:  rings?  →  {ring, rings};  sand(er|ing)  →
//     {sander, sanding};  pick[ -]?up  →  {pickup, "pick up"}  (alternatives
//     may span several tokens);
//   - groups:  (a | b c | d)  with each alternative a token sequence;
//     a trailing ? makes the whole element optional;
//   - wildcards:  \w+  matches exactly one token;
//   - the \syn slot (§5.1): inside a group, marks the disjunction the
//     synonym tool must expand; the group's other alternatives are the
//     "golden synonyms".
package pattern

import (
	"fmt"
	"strings"
)

// Kind identifies the element variants of the pattern AST.
type Kind int

const (
	// KindLit is a set of literal token-sequence alternatives.
	KindLit Kind = iota
	// KindGap matches zero or more arbitrary tokens (the .* separator).
	KindGap
	// KindAny matches exactly one arbitrary token (\w+).
	KindAny
	// KindSyn is the §5.1 synonym slot; Alts holds the golden synonyms.
	KindSyn
)

// Elem is one element of a parsed pattern.
type Elem struct {
	Kind Kind
	// Alts are the literal alternatives (each a token sequence) for KindLit,
	// or the golden-synonym alternatives for KindSyn.
	Alts [][]string
	// Optional marks a (…)? element that may be skipped entirely.
	Optional bool
}

// Pattern is a parsed, matchable rule pattern.
type Pattern struct {
	raw   string
	elems []Elem

	// Derived from elems by analyze when the pattern is built; read-only
	// afterwards (see RequiredAlternatives).
	witness [][]string
}

// maxAlternatives caps the cross-product expansion of a single word unit or
// group so that pathological inputs fail loudly at parse time rather than
// exploding at match time.
const maxAlternatives = 256

// Raw returns the original pattern source text.
func (p *Pattern) Raw() string { return p.raw }

// Elems exposes the parsed element sequence (read-only by convention).
func (p *Pattern) Elems() []Elem { return p.elems }

// HasSyn reports whether the pattern contains a \syn slot.
func (p *Pattern) HasSyn() bool {
	for _, e := range p.elems {
		if e.Kind == KindSyn {
			return true
		}
	}
	return false
}

// SynGolden returns the golden-synonym alternatives of the first \syn slot,
// or nil if the pattern has none.
func (p *Pattern) SynGolden() [][]string {
	for _, e := range p.elems {
		if e.Kind == KindSyn {
			return e.Alts
		}
	}
	return nil
}

// String renders a canonical form of the pattern (not necessarily the
// original source, but re-parseable for the supported dialect).
func (p *Pattern) String() string {
	var parts []string
	for _, e := range p.elems {
		switch e.Kind {
		case KindGap:
			parts = append(parts, ".*")
		case KindAny:
			parts = append(parts, `\w+`)
		case KindSyn:
			alts := make([]string, 0, len(e.Alts)+1)
			for _, a := range e.Alts {
				alts = append(alts, strings.Join(a, " "))
			}
			alts = append(alts, `\syn`)
			parts = append(parts, "("+strings.Join(alts, " | ")+")")
		case KindLit:
			alts := make([]string, 0, len(e.Alts))
			for _, a := range e.Alts {
				alts = append(alts, strings.Join(a, " "))
			}
			s := "(" + strings.Join(alts, " | ") + ")"
			if len(e.Alts) == 1 && len(e.Alts[0]) == 1 && !e.Optional {
				s = e.Alts[0][0]
			}
			if e.Optional {
				s += "?"
			}
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, " ")
}

// WithSynExpanded returns a copy of the pattern in which the \syn slot has
// been replaced by a literal group containing the golden synonyms plus the
// accepted synonyms found by the tool — the "expanded rule" the §5.1 tool
// returns to the analyst. Patterns without a slot are returned unchanged.
func (p *Pattern) WithSynExpanded(synonyms [][]string) *Pattern {
	out := &Pattern{raw: p.raw + " (expanded)"}
	out.elems = make([]Elem, len(p.elems))
	copy(out.elems, p.elems)
	for i, e := range out.elems {
		if e.Kind != KindSyn {
			continue
		}
		alts := make([][]string, 0, len(e.Alts)+len(synonyms))
		seen := map[string]bool{}
		for _, a := range append(append([][]string{}, e.Alts...), synonyms...) {
			key := strings.Join(a, " ")
			if key == "" || seen[key] {
				continue
			}
			seen[key] = true
			alts = append(alts, a)
		}
		out.elems[i] = Elem{Kind: KindLit, Alts: alts}
		break
	}
	out.raw = out.String()
	out.analyze()
	return out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

type parser struct {
	src []rune
	pos int
}

// Parse compiles the pattern dialect described in the package comment.
func Parse(src string) (*Pattern, error) {
	p := &parser{src: []rune(strings.TrimSpace(src))}
	if len(p.src) == 0 {
		return nil, fmt.Errorf("pattern: empty pattern")
	}
	elems, err := p.parseSeq(false)
	if err != nil {
		return nil, fmt.Errorf("pattern: %q: %w", src, err)
	}
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("pattern: %q: unexpected %q at offset %d", src, string(p.src[p.pos]), p.pos)
	}
	elems = normalizeElems(elems)
	if len(elems) == 0 {
		return nil, fmt.Errorf("pattern: %q: no matchable elements", src)
	}
	synCount := 0
	allOptional := true
	for _, e := range elems {
		if e.Kind == KindSyn {
			synCount++
		}
		if !e.Optional && e.Kind != KindGap {
			allOptional = false
		}
	}
	if synCount > 1 {
		// The §5.1 tool expands one disjunction at a time.
		return nil, fmt.Errorf("pattern: %q: multiple \\syn slots are not supported", src)
	}
	if allOptional {
		return nil, fmt.Errorf("pattern: %q: pattern matches everything (all elements optional)", src)
	}
	pat := &Pattern{raw: src, elems: elems}
	pat.analyze()
	return pat, nil
}

// MustParse is Parse for patterns known good at compile time; it panics on
// error and is intended for tests, examples and built-in dictionaries.
func MustParse(src string) *Pattern {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// normalizeElems collapses runs of consecutive gaps and strips leading and
// trailing gaps (matching is unanchored anyway, so they are redundant).
func normalizeElems(elems []Elem) []Elem {
	out := elems[:0]
	for _, e := range elems {
		if e.Kind == KindGap && len(out) > 0 && out[len(out)-1].Kind == KindGap {
			continue
		}
		out = append(out, e)
	}
	for len(out) > 0 && out[0].Kind == KindGap {
		out = out[1:]
	}
	for len(out) > 0 && out[len(out)-1].Kind == KindGap {
		out = out[:len(out)-1]
	}
	return out
}

// parseSeq parses a sequence of elements until end of input or, when
// inGroup, until a top-level '|' or ')'.
func (p *parser) parseSeq(inGroup bool) ([]Elem, error) {
	var elems []Elem
	for p.pos < len(p.src) {
		r := p.src[p.pos]
		switch {
		case r == ' ' || r == '\t':
			p.pos++ // adjacency separator
		case inGroup && (r == '|' || r == ')'):
			return elems, nil
		case r == ')' || r == '|':
			return nil, fmt.Errorf("unexpected %q at offset %d", string(r), p.pos)
		case r == '.':
			if !p.eat(".*") {
				return nil, fmt.Errorf("expected .* at offset %d", p.pos)
			}
			elems = append(elems, Elem{Kind: KindGap})
		case r == '\\':
			e, err := p.parseEscape()
			if err != nil {
				return nil, err
			}
			if e != nil {
				elems = append(elems, *e)
			}
		case r == '(':
			es, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			// A literal, non-optional group immediately followed by word
			// characters is the head of a word unit: (oil | lubricant)s?
			// expands to {oil, oils, lubricant, lubricants}. A following
			// separator class ((abrasive|…)[ -](wheels?|…)) is NOT part of
			// the word: it separates two elements, which keeps subsumption
			// analysis element-wise.
			if len(es) == 1 && es[0].Kind == KindLit && !es[0].Optional &&
				p.pos < len(p.src) && isWordRune(p.src[p.pos]) {
				e, err := p.parseWordUnit(es[0].Alts)
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				continue
			}
			elems = append(elems, es...)
		case r == '[':
			// A bare separator class between elements is an adjacency
			// separator (e.g. the [ -] in (abrasive|…)[ -](wheels?|…)).
			if err := p.parseSeparatorClass(); err != nil {
				return nil, err
			}
		case isWordRune(r):
			e, err := p.parseWordUnit(nil)
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		default:
			return nil, fmt.Errorf("unexpected %q at offset %d", string(r), p.pos)
		}
	}
	if inGroup {
		return nil, fmt.Errorf("unterminated group")
	}
	return elems, nil
}

// parseEscape handles \w+, \s+ and \syn at sequence level.
func (p *parser) parseEscape() (*Elem, error) {
	switch {
	case p.eat(`\w+`):
		return &Elem{Kind: KindAny}, nil
	case p.eat(`\s+`):
		return nil, nil // adjacency separator
	case p.eat(`\syn`):
		return &Elem{Kind: KindSyn}, nil
	default:
		return nil, fmt.Errorf("unsupported escape at offset %d", p.pos)
	}
}

// parseSeparatorClass consumes a character class like [ -] (optionally
// followed by ?) that contains only token-separator characters. In token
// space such a class is pure adjacency: the tokenizer has already split on
// those characters.
func (p *parser) parseSeparatorClass() error {
	start := p.pos
	p.pos++ // '['
	for p.pos < len(p.src) && p.src[p.pos] != ']' {
		r := p.src[p.pos]
		if !isSeparatorRune(r) {
			return fmt.Errorf("character class at offset %d contains non-separator %q (only separator classes such as [ -] are supported)", start, string(r))
		}
		p.pos++
	}
	if p.pos >= len(p.src) {
		return fmt.Errorf("unterminated character class at offset %d", start)
	}
	p.pos++    // ']'
	p.eat("?") // optional separator is still adjacency in token space
	return nil
}

// parseGroup parses ( alt | alt | … ) with an optional trailing ?. It
// usually yields a single element, but a wildcard group such as (\w+) or
// (\w+\s+\w+) — the generalized regexes of §5.1 — expands to a run of
// KindAny elements.
func (p *parser) parseGroup() ([]Elem, error) {
	p.pos++ // '('
	var alts [][]string
	var wildcards []Elem
	syn := false
	nAlternatives := 0
	for {
		seq, err := p.parseSeq(true)
		if err != nil {
			return nil, err
		}
		nAlternatives++
		if allAny(seq) {
			wildcards = seq
		} else {
			altSeqs, isSyn, err := flattenAlternative(seq)
			if err != nil {
				return nil, err
			}
			if isSyn {
				syn = true
			} else {
				alts = append(alts, altSeqs...)
				if len(alts) > maxAlternatives {
					return nil, fmt.Errorf("group expands to more than %d alternatives", maxAlternatives)
				}
			}
		}
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("unterminated group")
		}
		if p.src[p.pos] == '|' {
			p.pos++
			continue
		}
		p.pos++ // ')'
		break
	}
	if wildcards != nil {
		if nAlternatives > 1 {
			return nil, fmt.Errorf("wildcard groups cannot be mixed with other alternatives")
		}
		if p.eat("?") {
			return nil, fmt.Errorf("wildcard groups cannot be optional")
		}
		return wildcards, nil
	}
	e := Elem{Kind: KindLit, Alts: dedupeAlts(alts)}
	if syn {
		e.Kind = KindSyn
	}
	if p.eat("?") {
		if syn {
			return nil, fmt.Errorf("\\syn slot cannot be optional")
		}
		e.Optional = true
	}
	if !syn && len(e.Alts) == 0 {
		return nil, fmt.Errorf("empty group")
	}
	return []Elem{e}, nil
}

// allAny reports whether seq is a non-empty run of \w+ wildcards.
func allAny(seq []Elem) bool {
	if len(seq) == 0 {
		return false
	}
	for _, e := range seq {
		if e.Kind != KindAny {
			return false
		}
	}
	return true
}

// flattenAlternative converts one group alternative — parsed as a sequence of
// elements — into literal token-sequence alternatives. An alternative that is
// exactly the \syn marker flags the group as a synonym slot. Alternatives
// must be purely literal: gaps or wildcards inside a group are outside the
// analyst dialect and rejected.
func flattenAlternative(seq []Elem) (alts [][]string, isSyn bool, err error) {
	if len(seq) == 1 && seq[0].Kind == KindSyn {
		return nil, true, nil
	}
	if len(seq) == 0 {
		return nil, false, fmt.Errorf("empty group alternative")
	}
	acc := [][]string{nil}
	for _, e := range seq {
		if e.Kind != KindLit {
			return nil, false, fmt.Errorf("group alternatives must be literal (no gaps, wildcards or nested \\syn)")
		}
		var next [][]string
		for _, prefix := range acc {
			if e.Optional {
				next = append(next, prefix)
			}
			for _, alt := range e.Alts {
				combined := make([]string, 0, len(prefix)+len(alt))
				combined = append(combined, prefix...)
				combined = append(combined, alt...)
				next = append(next, combined)
			}
		}
		if len(next) > maxAlternatives {
			return nil, false, fmt.Errorf("group alternative expands to more than %d variants", maxAlternatives)
		}
		acc = next
	}
	for _, a := range acc {
		if len(a) > 0 {
			alts = append(alts, a)
		}
	}
	if len(alts) == 0 {
		return nil, false, fmt.Errorf("group alternative is empty after expansion")
	}
	return alts, false, nil
}

// parseWordUnit parses a maximal run of word characters interleaved with
// regex decorations that stay within one "word": optional last characters
// (rings?), embedded groups (sand(er|ing), auto(motive)?), and optional
// separator classes (pick[ -]?up). It expands the unit into literal
// token-sequence alternatives. initial seeds the expansion with alternatives
// already parsed (a group head such as (oil | lubricant) in
// (oil | lubricant)s?); nil starts a fresh word.
func (p *parser) parseWordUnit(initial [][]string) (Elem, error) {
	// variants holds partially built alternatives; the last token of each
	// variant is "open" for further concatenation.
	variants := [][]string{{""}}
	if initial != nil {
		variants = make([][]string, len(initial))
		for i, alt := range initial {
			variants[i] = cloneVariant(alt)
		}
	}
	appendRune := func(r rune) {
		for _, v := range variants {
			v[len(v)-1] += string(lowerRune(r))
		}
	}
	for p.pos < len(p.src) {
		r := p.src[p.pos]
		switch {
		case isWordRune(r):
			p.pos++
			// Optional last character: x? keeps or drops x.
			if p.pos < len(p.src) && p.src[p.pos] == '?' {
				p.pos++
				var next [][]string
				for _, v := range variants {
					withOut := cloneVariant(v)
					next = append(next, withOut)
					with := cloneVariant(v)
					with[len(with)-1] += string(lowerRune(r))
					next = append(next, with)
				}
				variants = capVariants(next)
				if variants == nil {
					return Elem{}, fmt.Errorf("word unit expands to more than %d variants", maxAlternatives)
				}
				continue
			}
			appendRune(r)
		case r == '(':
			subs, err := p.parseGroup()
			if err != nil {
				return Elem{}, err
			}
			if len(subs) != 1 || subs[0].Kind != KindLit {
				return Elem{}, fmt.Errorf("only literal groups can be embedded in a word")
			}
			sub := subs[0]
			var next [][]string
			for _, v := range variants {
				if sub.Optional {
					next = append(next, cloneVariant(v))
				}
				for _, alt := range sub.Alts {
					nv := cloneVariant(v)
					// First token of alt concatenates onto the open token;
					// the rest become new tokens.
					nv[len(nv)-1] += alt[0]
					nv = append(nv, alt[1:]...)
					next = append(next, nv)
				}
			}
			variants = capVariants(next)
			if variants == nil {
				return Elem{}, fmt.Errorf("word unit expands to more than %d variants", maxAlternatives)
			}
		case r == '[':
			// Separator class inside a word: pick[ -]up splits the word;
			// pick[ -]?up yields both the split and the joined form.
			start := p.pos
			if err := p.parseSeparatorClass(); err != nil {
				return Elem{}, err
			}
			optional := p.src[p.pos-1] == '?'
			_ = start
			var next [][]string
			for _, v := range variants {
				split := cloneVariant(v)
				split = append(split, "")
				next = append(next, split)
				if optional {
					next = append(next, cloneVariant(v)) // joined form
				}
			}
			variants = capVariants(next)
			if variants == nil {
				return Elem{}, fmt.Errorf("word unit expands to more than %d variants", maxAlternatives)
			}
		default:
			goto done
		}
	}
done:
	var alts [][]string
	for _, v := range variants {
		clean := make([]string, 0, len(v))
		for _, tok := range v {
			if tok != "" {
				clean = append(clean, tok)
			}
		}
		if len(clean) > 0 {
			alts = append(alts, clean)
		}
	}
	if len(alts) == 0 {
		return Elem{}, fmt.Errorf("empty word unit at offset %d", p.pos)
	}
	return Elem{Kind: KindLit, Alts: dedupeAlts(alts)}, nil
}

func cloneVariant(v []string) []string {
	out := make([]string, len(v))
	copy(out, v)
	return out
}

func capVariants(vs [][]string) [][]string {
	if len(vs) > maxAlternatives {
		return nil
	}
	return vs
}

func dedupeAlts(alts [][]string) [][]string {
	seen := make(map[string]bool, len(alts))
	out := alts[:0]
	for _, a := range alts {
		key := strings.Join(a, "\x00")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, a)
	}
	return out
}

// eat consumes the literal string s if it is next in the input.
func (p *parser) eat(s string) bool {
	if p.pos+len(s) > len(p.src) {
		return false
	}
	if string(p.src[p.pos:p.pos+len(s)]) != s {
		return false
	}
	p.pos += len(s)
	return true
}

func isWordRune(r rune) bool {
	return r == '_' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') ||
		r > 127 // be permissive about non-ASCII letters
}

func isSeparatorRune(r rune) bool {
	switch r {
	case ' ', '-', '_', '/', ',', '.':
		return true
	}
	return false
}

func lowerRune(r rune) rune {
	if r >= 'A' && r <= 'Z' {
		return r + ('a' - 'A')
	}
	return r
}
