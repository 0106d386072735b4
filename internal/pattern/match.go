package pattern

import (
	"math/bits"
	"strings"
)

// Match reports whether the pattern matches anywhere in the tokenized title.
// A \syn slot, if present, matches its golden alternatives (so a rule under
// expansion still behaves like the analyst's original rule).
//
// It sweeps the elements once, carrying the set of title positions a match
// of the elements so far can end at — bit i means "just before tokens[i]",
// bit len(tokens) "after the last token" — so its cost is O(tokens ×
// alternatives) per element (per pair of alternatives for the last two)
// however many .* gaps the pattern has. A match may
// start anywhere (every position is reachable before the first element) and
// leave trailing tokens unmatched (any position reachable after the last
// element is a match). Two shortcuts keep the common shapes as cheap as a
// first-hit scan: before a gap only the lowest reachable end matters (the gap
// reaches everything after it), and the last one or two elements, when no
// gap is among them, are tried start by start until the first match.
func (p *Pattern) Match(tokens []string) bool {
	n := len(tokens)
	words := n/64 + 1 // positions 0..n
	var buf [4]uint64
	var cur, next posSet
	if words <= 2 {
		cur, next = buf[:words], buf[2:2+words]
	} else {
		cur, next = make(posSet, words), make(posSet, words)
	}
	cur.fillFrom(0, n)
	elems := p.elems
	// Invariant: cur is non-empty at the top of every iteration.
	for i := 0; i < len(elems); i++ {
		e := &elems[i]
		gapNext := i+1 < len(elems) && elems[i+1].Kind == KindGap
		switch {
		case e.Kind == KindGap:
			cur.fillFrom(cur.first(), n)
			continue
		case !gapNext && i+2 >= len(elems):
			return cur.anyTail(tokens, elems[i:])
		case gapNext && e.Kind == KindLit:
			end, ok := lowestEnd(tokens, cur, e.Alts)
			if e.Optional {
				end, ok = min(end, cur.first()), true
			}
			if !ok {
				return false
			}
			cur.fillFrom(end, n)
			i++ // the gap
			continue
		case e.Kind == KindAny || e.Kind == KindSyn && len(e.Alts) == 0:
			// \w+, and a bare \syn with no golden alternatives: exactly one
			// arbitrary token.
			next.shiftFrom(cur, n, e.Optional)
		default:
			clear(next)
			if e.Optional {
				copy(next, cur)
			}
			for k, w := range cur {
				for ; w != 0; w &= w - 1 {
					pos := k<<6 + bits.TrailingZeros64(w)
					for _, alt := range e.Alts {
						if matchAlt(tokens, pos, alt) {
							next.set(pos + len(alt))
						}
					}
				}
			}
		}
		cur, next = next, cur
		if cur.empty() {
			return false
		}
	}
	return true
}

// lowestEnd returns the lowest position one of alts can end at when it starts
// at a position in from. It scans starts in ascending order and stops as soon
// as no later start can end lower.
func lowestEnd(tokens []string, from posSet, alts [][]string) (end int, ok bool) {
	end = len(tokens) + 1
	for k, w := range from {
		for ; w != 0; w &= w - 1 {
			pos := k<<6 + bits.TrailingZeros64(w)
			if pos+1 >= end {
				return end, ok
			}
			for _, alt := range alts {
				if pos+len(alt) < end && matchAlt(tokens, pos, alt) {
					end, ok = pos+len(alt), true
				}
			}
		}
	}
	return end, ok
}

// anyTail reports whether tail — the pattern's last one or two elements, no
// gap among them — matches starting at some position in s.
func (s posSet) anyTail(tokens []string, tail []Elem) bool {
	for k, w := range s {
		for ; w != 0; w &= w - 1 {
			if tailAt(tokens, k<<6+bits.TrailingZeros64(w), tail) {
				return true
			}
		}
	}
	return false
}

// tailAt reports whether the gap-free elements tail match starting exactly
// at tokens[pos]. tail holds at most two elements, so the recursion is at
// most two deep.
func tailAt(tokens []string, pos int, tail []Elem) bool {
	if len(tail) == 0 {
		return true
	}
	e := &tail[0]
	if e.Optional && tailAt(tokens, pos, tail[1:]) {
		return true
	}
	if e.Kind == KindAny || e.Kind == KindSyn && len(e.Alts) == 0 {
		return pos < len(tokens) && tailAt(tokens, pos+1, tail[1:])
	}
	for _, alt := range e.Alts {
		if matchAlt(tokens, pos, alt) && tailAt(tokens, pos+len(alt), tail[1:]) {
			return true
		}
	}
	return false
}

// posSet is a bitset over title positions 0..len(tokens).
type posSet []uint64

func (s posSet) set(i int) { s[i>>6] |= 1 << (i & 63) }

func (s posSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// first returns the lowest position in s, or len(s)*64 when s is empty.
func (s posSet) first() int {
	for k, w := range s {
		if w != 0 {
			return k<<6 + bits.TrailingZeros64(w)
		}
	}
	return len(s) << 6
}

// fillFrom makes s exactly the positions lo..n.
func (s posSet) fillFrom(lo, n int) {
	for k := range s {
		base := k << 6
		w := ^uint64(0)
		if lo > base {
			w <<= min(lo-base, 64)
		}
		if hi := n - base; hi < 63 {
			w &= 1<<(hi+1) - 1
			if hi < 0 {
				w = 0
			}
		}
		s[k] = w
	}
}

// shiftFrom sets s to every position of src moved one token right (dropping
// any past n), united with src itself when keep is set.
func (s posSet) shiftFrom(src posSet, n int, keep bool) {
	var carry uint64
	for k, w := range src {
		out := w<<1 | carry
		carry = w >> 63
		if keep {
			out |= w
		}
		s[k] = out
	}
	s[n>>6] &= 1<<(n&63+1) - 1
}

func matchAlt(tokens []string, pos int, alt []string) bool {
	if pos+len(alt) > len(tokens) {
		return false
	}
	for k, t := range alt {
		if tokens[pos+k] != t {
			return false
		}
	}
	return true
}

// SynMatch is one occurrence of a candidate phrase filling the \syn slot,
// together with the context window the §5.1 tool ranks by: up to ContextWidth
// tokens immediately before and after the candidate.
type SynMatch struct {
	// Candidate is the token sequence that filled the slot.
	Candidate []string
	// Prefix is the context before the candidate (closest token last).
	Prefix []string
	// Suffix is the context after the candidate (closest token first).
	Suffix []string
}

// Key returns the canonical single-string form of the candidate.
func (m SynMatch) Key() string { return strings.Join(m.Candidate, " ") }

// SynOptions configures FindSyn. Defaults follow the paper: candidate
// synonyms of up to 3 tokens, context windows of 5 tokens.
type SynOptions struct {
	MaxSynLen    int // maximum candidate length in tokens (paper: 3)
	ContextWidth int // prefix/suffix window in tokens (paper: 5)
}

// DefaultSynOptions are the §5.1 production settings.
var DefaultSynOptions = SynOptions{MaxSynLen: 3, ContextWidth: 5}

func (o SynOptions) withDefaults() SynOptions {
	if o.MaxSynLen <= 0 {
		o.MaxSynLen = DefaultSynOptions.MaxSynLen
	}
	if o.ContextWidth <= 0 {
		o.ContextWidth = DefaultSynOptions.ContextWidth
	}
	return o
}

// FindSyn enumerates every way the pattern matches the title with the \syn
// slot filled by 1..MaxSynLen arbitrary tokens, mirroring the generalized
// regexes of §5.1 ((\w+) oils?, (\w+\s+\w+) oils?, …). Matches are
// deduplicated by slot span. Golden alternatives also fill the slot — the
// caller separates golden from candidate matches, since golden contexts seed
// the ranking. Patterns without a \syn slot yield nil.
func (p *Pattern) FindSyn(tokens []string, opts SynOptions) []SynMatch {
	if !p.HasSyn() {
		return nil
	}
	opts = opts.withDefaults()
	type span struct{ start, end int }
	seen := map[span]bool{}
	var out []SynMatch

	var rec func(i, pos int, slot *span)
	record := func(s span) {
		if seen[s] {
			return
		}
		seen[s] = true
		m := SynMatch{Candidate: tokens[s.start:s.end]}
		pStart := s.start - opts.ContextWidth
		if pStart < 0 {
			pStart = 0
		}
		m.Prefix = tokens[pStart:s.start]
		sEnd := s.end + opts.ContextWidth
		if sEnd > len(tokens) {
			sEnd = len(tokens)
		}
		m.Suffix = tokens[s.end:sEnd]
		out = append(out, m)
	}
	rec = func(i, pos int, slot *span) {
		if i == len(p.elems) {
			if slot != nil {
				record(*slot)
			}
			return
		}
		e := p.elems[i]
		switch e.Kind {
		case KindGap:
			for skip := 0; pos+skip <= len(tokens); skip++ {
				rec(i+1, pos+skip, slot)
			}
		case KindAny:
			if pos < len(tokens) {
				rec(i+1, pos+1, slot)
			}
		case KindSyn:
			for l := 1; l <= opts.MaxSynLen && pos+l <= len(tokens); l++ {
				s := span{pos, pos + l}
				rec(i+1, pos+l, &s)
			}
		case KindLit:
			if e.Optional {
				rec(i+1, pos, slot)
			}
			for _, alt := range e.Alts {
				if matchAlt(tokens, pos, alt) {
					rec(i+1, pos+len(alt), slot)
				}
			}
		}
	}
	for start := 0; start <= len(tokens); start++ {
		rec(0, start, nil)
	}
	return out
}
