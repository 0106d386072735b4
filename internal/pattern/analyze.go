package pattern

import (
	"strings"

	"repro/internal/randx"
	"repro/internal/tokenize"
)

// ---------------------------------------------------------------------------
// Required-token analysis (rule indexing, §5.3)
// ---------------------------------------------------------------------------

// RequiredAlternatives returns, for each mandatory literal element, a witness
// set of tokens such that every title the pattern matches must contain at
// least one token from each set. (For a multi-token alternative the witness
// is its first token.) Optional elements, gaps, wildcards and \syn slots
// contribute no witnesses. The result may be empty — e.g. for (\w+) oils?
// the "oils?" element still yields {oil, oils}, but a pure-wildcard pattern
// yields nothing and must be scanned unconditionally.
//
// The sets are computed once when the pattern is built and shared by every
// call (a rule index is rebuilt on every rulebase mutation and reads them for
// every rule): callers must not modify them.
func (p *Pattern) RequiredAlternatives() [][]string { return p.witness }

// MayMatch reports whether a title with the given tokenize.Signature could
// match the pattern: every witness set must have at least one token whose
// bit is set. It can answer true for a title that does not match (a shared
// bit, or witnesses present in the wrong order) but never false for one that
// does — Match implies every witness set is hit, and a present token always
// has its bit set. Patterns without witnesses pass every signature.
func (p *Pattern) MayMatch(sig uint64) bool {
	for _, m := range p.masks {
		if m&sig == 0 {
			return false
		}
	}
	return true
}

// analyze derives the witness sets and their signature masks from elems.
func (p *Pattern) analyze() {
	p.witness, p.masks = nil, nil
	for _, e := range p.elems {
		if e.Kind != KindLit || e.Optional {
			continue
		}
		ws := make([]string, 0, len(e.Alts))
		var mask uint64
	alts:
		for _, alt := range e.Alts {
			for _, seen := range ws {
				if seen == alt[0] {
					continue alts
				}
			}
			ws = append(ws, alt[0])
			mask |= tokenize.TokenBit(alt[0])
		}
		p.witness = append(p.witness, ws)
		p.masks = append(p.masks, mask)
	}
}

// ---------------------------------------------------------------------------
// Subsumption (§4 rule maintenance: "denim.*jeans? is subsumed by jeans?")
// ---------------------------------------------------------------------------

// Subsumes reports whether every title matched by specific is necessarily
// matched by general — i.e. the specific rule is redundant given the general
// one. The check is sound but not complete: it returns true only when
// subsumption provably holds; pathological patterns (wildcards on the
// general side aligned against multi-token alternatives, \syn slots) may be
// reported as false even if subsumption holds semantically.
func Subsumes(general, specific *Pattern) bool {
	gvs, ok := general.simpleVariants()
	if !ok {
		return false
	}
	svs, ok := specific.simpleVariants()
	if !ok {
		return false
	}
	// Every variant of the specific pattern must be covered by some variant
	// of the general pattern.
	for _, sv := range svs {
		covered := false
		for _, gv := range gvs {
			if embeds(gv, sv) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// variant is a pattern with optionals expanded away: a sequence of items,
// each preceded by a separator (gap or adjacency) relative to the previous
// item.
type varItem struct {
	afterGap bool // true: any tokens may precede this item (.*); false: adjacent
	any      bool // wildcard item (\w+): matches exactly one arbitrary token
	alts     map[string]bool
	multi    bool // some alternative spans multiple tokens
}

const maxVariants = 16

// simpleVariants expands optional elements into plain variants. It fails
// (ok=false) for \syn patterns or when expansion exceeds maxVariants.
func (p *Pattern) simpleVariants() ([][]varItem, bool) {
	variants := [][]varItem{{}}
	pendingGap := make([]bool, 1) // per-variant: was the last separator a gap?
	setGap := func(vi int) { pendingGap[vi] = true }
	for _, e := range p.elems {
		switch e.Kind {
		case KindSyn:
			return nil, false
		case KindGap:
			for vi := range variants {
				setGap(vi)
			}
		case KindAny, KindLit:
			item := varItem{any: e.Kind == KindAny}
			if e.Kind == KindLit {
				item.alts = make(map[string]bool, len(e.Alts))
				for _, a := range e.Alts {
					item.alts[strings.Join(a, " ")] = true
					if len(a) > 1 {
						item.multi = true
					}
				}
			}
			var nextVars [][]varItem
			var nextGaps []bool
			for vi, v := range variants {
				if e.Optional {
					// Variant without the element: an optional element
					// "dissolves" adjacency on both sides into whatever the
					// stronger neighbouring separator is; to stay sound we
					// widen it to a gap only if a gap was already pending —
					// otherwise skipping keeps plain adjacency between the
					// neighbours, which is exactly what the matcher does.
					nextVars = append(nextVars, cloneItems(v))
					nextGaps = append(nextGaps, pendingGap[vi])
				}
				withItem := cloneItems(v)
				it := item
				it.afterGap = pendingGap[vi]
				withItem = append(withItem, it)
				nextVars = append(nextVars, withItem)
				nextGaps = append(nextGaps, false)
			}
			if len(nextVars) > maxVariants {
				return nil, false
			}
			variants = nextVars
			pendingGap = nextGaps
		}
	}
	return variants, true
}

func cloneItems(v []varItem) []varItem {
	out := make([]varItem, len(v))
	copy(out, v)
	return out
}

// embeds reports whether the general variant g embeds into the specific
// variant s: an order-preserving injective mapping of g's items onto s's
// items such that each mapped g item accepts everything the s item can
// produce, and g's adjacency constraints are honoured. Unmapped s items are
// extra constraints and only make s more specific.
func embeds(g, s []varItem) bool {
	// memoized recursion over (gi, si, adjacentRequired)
	type key struct {
		gi, si int
		adj    bool
	}
	memo := map[key]bool{}
	var rec func(gi, si int, adj bool) bool
	rec = func(gi, si int, adj bool) bool {
		if gi == len(g) {
			return true
		}
		k := key{gi, si, adj}
		if v, ok := memo[k]; ok {
			return v
		}
		res := false
		ge := g[gi]
		for j := si; j < len(s); j++ {
			if adj && j > si {
				break // adjacency demanded: must map to the immediate next item
			}
			if adj && s[j].afterGap {
				break // s allows intervening tokens where g demands adjacency
			}
			if !itemAccepts(ge, s[j]) {
				if adj {
					break
				}
				continue
			}
			nextAdj := gi+1 < len(g) && !g[gi+1].afterGap
			if rec(gi+1, j+1, nextAdj) {
				res = true
				break
			}
			if adj {
				break
			}
		}
		memo[k] = res
		return res
	}
	// g's first item: its afterGap is irrelevant (unanchored start).
	return rec(0, 0, false)
}

// itemAccepts reports whether general item ge matches every token sequence
// that specific item se can produce.
func itemAccepts(ge, se varItem) bool {
	if ge.any {
		// \w+ accepts any single token: safe only if se never produces
		// multi-token output.
		return se.any || !se.multi
	}
	if se.any {
		return false // specific wildcard can produce tokens ge rejects
	}
	for alt := range se.alts {
		if !ge.alts[alt] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Match generation (property tests, overlap estimation)
// ---------------------------------------------------------------------------

// GenerateMatch produces a random tokenized title guaranteed to match the
// pattern, padding with draws from vocab. It is used by property tests and
// by sampling-based overlap estimation. vocab must be non-empty.
func (p *Pattern) GenerateMatch(r *randx.Rand, vocab []string) []string {
	var out []string
	pad := func(max int) {
		n := r.Intn(max + 1)
		for i := 0; i < n; i++ {
			out = append(out, r.PickString(vocab))
		}
	}
	pad(2)
	for _, e := range p.elems {
		switch e.Kind {
		case KindGap:
			pad(2)
		case KindAny:
			out = append(out, r.PickString(vocab))
		case KindLit, KindSyn:
			if e.Optional && r.Bool(0.5) {
				continue
			}
			if len(e.Alts) == 0 { // bare \syn slot: any single token matches
				out = append(out, r.PickString(vocab))
				continue
			}
			alt := e.Alts[r.Intn(len(e.Alts))]
			out = append(out, alt...)
		}
	}
	pad(2)
	return out
}

// OverlapEstimate estimates, by sampling, the probability that a title
// matching a also matches b and vice versa. It returns the two conditional
// estimates (P(b|a), P(a|b)). n samples are drawn per direction. It is the
// dynamic complement to Subsumes for the §4 overlap-maintenance challenge.
func OverlapEstimate(r *randx.Rand, a, b *Pattern, vocab []string, n int) (bGivenA, aGivenB float64) {
	if n <= 0 {
		n = 200
	}
	countBA := 0
	for i := 0; i < n; i++ {
		if b.Match(a.GenerateMatch(r, vocab)) {
			countBA++
		}
	}
	countAB := 0
	for i := 0; i < n; i++ {
		if a.Match(b.GenerateMatch(r, vocab)) {
			countAB++
		}
	}
	return float64(countBA) / float64(n), float64(countAB) / float64(n)
}
