package pattern

import (
	"strings"
	"testing"
	"time"

	"repro/internal/randx"
)

// backtrackMatch is the recursive matcher Match replaced, kept as the oracle
// FuzzMatchEqualsBacktracking and TestMatchEqualsBacktracking compare the
// position-set sweep against. Its cost is exponential in the number of .*
// gaps, so it is only run on short titles.
func backtrackMatch(p *Pattern, tokens []string) bool {
	for start := 0; start <= len(tokens); start++ {
		if backtrackFrom(p, tokens, 0, start) {
			return true
		}
		// Without a first anchor token there is no point sliding further:
		// matching from position 0 already explored gaps.
		if len(p.elems) > 0 && p.elems[0].Kind == KindGap {
			break
		}
	}
	return false
}

// backtrackFrom attempts to match elems[i:] beginning exactly at
// tokens[pos:]. Trailing unmatched title tokens are always allowed.
func backtrackFrom(p *Pattern, tokens []string, i, pos int) bool {
	if i == len(p.elems) {
		return true
	}
	e := p.elems[i]
	switch e.Kind {
	case KindGap:
		for skip := 0; pos+skip <= len(tokens); skip++ {
			if backtrackFrom(p, tokens, i+1, pos+skip) {
				return true
			}
		}
		return false
	case KindAny:
		return pos < len(tokens) && backtrackFrom(p, tokens, i+1, pos+1)
	case KindLit, KindSyn:
		if e.Optional && backtrackFrom(p, tokens, i+1, pos) {
			return true
		}
		if e.Kind == KindSyn && len(e.Alts) == 0 {
			return pos < len(tokens) && backtrackFrom(p, tokens, i+1, pos+1)
		}
		for _, alt := range e.Alts {
			if matchAlt(tokens, pos, alt) && backtrackFrom(p, tokens, i+1, pos+len(alt)) {
				return true
			}
		}
		return false
	}
	return false
}

// oraclePatterns cover every element kind and the shapes that stress the
// sweep: optional groups, multi-token alternatives, wildcards, leading and
// trailing gaps, repeated gaps.
var oraclePatterns = []string{
	"a",
	"a b",
	"a.*b",
	".*a",
	"a.*",
	"a.*a.*b",
	"(a | b c)? d",
	"(a b | b) c",
	"a (b)? c",
	`(\w+) b`,
	`a \w+ \w+ c`,
	`(\w+\s+\w+) a`,
	"(a | a b | a b c) c",
	"a.*(b | c d)?.*d",
	".*(a b)? c.*",
	"(b c)? (a | c)? b",
	"(a | b | \\syn) c",
	"a.*b.*a.*b",
}

// TestMatchEqualsBacktracking compares Match with the recursive oracle on
// every token string of length ≤ 6 over a three-token alphabet, and on
// random longer ones, for every oracle pattern.
func TestMatchEqualsBacktracking(t *testing.T) {
	alphabet := []string{"a", "b", "c", "d"}
	var all [][]string
	var grow func(prefix []string)
	grow = func(prefix []string) {
		all = append(all, append([]string(nil), prefix...))
		if len(prefix) == 6 {
			return
		}
		for _, tok := range alphabet[:3] {
			grow(append(prefix, tok))
		}
	}
	grow(nil)
	r := randx.New(11)
	for i := 0; i < 2000; i++ {
		toks := make([]string, 60+r.Intn(80)) // crosses the one- and two-word position sets
		for k := range toks {
			toks[k] = alphabet[r.Intn(len(alphabet))]
		}
		all = append(all, toks)
	}
	for _, src := range oraclePatterns {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		dict := map[string]int{"d": 1} // d is in the dictionary but in no pattern but one
		for _, toks := range all {
			want := backtrackMatch(p, toks)
			if got := p.Match(toks); got != want {
				t.Fatalf("%q on %q: Match = %v, backtracking = %v", src, toks, got, want)
			}
			got, ok := programMatch(t, p, dict, toks)
			if ok != (len(toks) <= MaxProgramTitle) || ok && got != want {
				t.Fatalf("%q on %q: MatchProgram = %v (ok %v), backtracking = %v", src, toks, got, ok, want)
			}
		}
	}
}

// programMatch runs p's program against toks interned through dict, adding
// the pattern's tokens to dict first; a title token dict lacks gets ID 0.
func programMatch(t testing.TB, p *Pattern, dict map[string]int, toks []string) (matched, ok bool) {
	t.Helper()
	prog, built := p.AppendProgram(nil, func(tok string) int {
		if _, ok := dict[tok]; !ok {
			dict[tok] = len(dict) + 1
		}
		return dict[tok]
	})
	if !built {
		t.Fatalf("%q has no program form", p.Raw())
	}
	var title IDTitle
	for _, tok := range toks {
		title.Add(uint16(dict[tok]))
	}
	return MatchProgram(prog, &title)
}

// stretch returns toks repeated cyclically to exactly n tokens (a filler
// token no pattern mentions when toks is empty).
func stretch(toks []string, n int) []string {
	if len(toks) == 0 {
		toks = []string{"filler"}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = toks[i%len(toks)]
	}
	return out
}

// FuzzMatchEqualsBacktracking checks Match against the recursive oracle on
// any parsable pattern and any title of at most 24 tokens (the oracle's cost
// grows exponentially with the number of gaps), and the pattern's program
// against both on the same title interned through a dictionary. known title
// tokens are interned before the pattern's, so the dictionary also holds
// tokens the program does not mention; the rest of the title's tokens are
// missing from it. The program is also checked against Match on the title
// stretched to 0 and 63 tokens, and must decline 64 and 100.
func FuzzMatchEqualsBacktracking(f *testing.F) {
	for _, src := range oraclePatterns {
		f.Add(src, "a b c d a b", uint8(2))
		f.Add(src, "", uint8(0))
	}
	f.Add("diamond.*trio sets?", "diamond ring trio set", uint8(1))
	f.Add("pick[ -]?up (oil | lubricant)s?", "pick up lubricants", uint8(0))
	f.Add("(a | b c)? (d e | d)? f", "b c d e f", uint8(3))
	f.Add(`(\syn) oils?`, "motor oil", uint8(1))
	f.Add(`(motor | engine | \syn) oils?`, "engine oils", uint8(0))
	f.Add(`a \w+ (b | c d)`, "a x c d", uint8(4))
	f.Fuzz(func(t *testing.T, src, title string, known uint8) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		toks := strings.Fields(title)
		if len(toks) > 24 {
			toks = toks[:24]
		}
		dict := map[string]int{}
		for _, tok := range toks[:min(int(known), len(toks))] {
			if _, ok := dict[tok]; !ok {
				dict[tok] = len(dict) + 1
			}
		}
		want := backtrackMatch(p, toks)
		if got := p.Match(toks); got != want {
			t.Fatalf("%q on %q: Match = %v, backtracking = %v", src, toks, got, want)
		}
		if got, ok := programMatch(t, p, dict, toks); !ok || got != want {
			t.Fatalf("%q on %q: MatchProgram = %v (ok %v), backtracking = %v", src, toks, got, ok, want)
		}
		for _, n := range []int{0, MaxProgramTitle, MaxProgramTitle + 1, 100} {
			long := stretch(toks, n)
			got, ok := programMatch(t, p, dict, long)
			if ok != (n <= MaxProgramTitle) {
				t.Fatalf("%q on %d tokens: MatchProgram ok = %v", src, n, ok)
			}
			if want := p.Match(long); ok && got != want {
				t.Fatalf("%q on %q: MatchProgram = %v, Match = %v", src, long, got, want)
			}
		}
	})
}

// TestMatchGapsStayLinear is the case that stalled a serving worker: five .*
// gaps against a 60-token title of the repeated token, which a rule index
// proposes when the title also holds the last literal. The backtracking
// matcher took over a second on it; the sweep must take well under a
// millisecond.
func TestMatchGapsStayLinear(t *testing.T) {
	p, err := Parse("a.*a.*a.*a.*a.*b")
	if err != nil {
		t.Fatal(err)
	}
	toks := strings.Fields(strings.Repeat("a ", 60))
	best := time.Duration(1 << 62)
	for i := 0; i < 5; i++ {
		start := time.Now()
		if p.Match(toks) {
			t.Fatal("matched a title without b")
		}
		best = min(best, time.Since(start))
	}
	if best > time.Millisecond {
		t.Fatalf("Match took %v on a 60-token title, want < 1ms", best)
	}
	if !p.Match(append(toks, "b")) {
		t.Fatal("missed the match once b is appended")
	}
}
