package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/pattern"
)

// RuleIndex answers "which rules could match this item?" without scanning
// the whole rulebase — the §5.3 solution: "index these rules, so that given
// a particular data item we can quickly locate those rules that are likely
// to match" — and decides each candidate from a compact program it keeps per
// rule.
//
// Candidate generation has two steps, and both live here rather than in
// Rule.Matches, so the sequential oracle stays independent of them:
//
//   - Posting. A pattern rule posts under one of its witness sets
//     (pattern.RequiredAlternatives): a title can only match if it contains
//     one of those tokens. Which set is decided by rule-side document
//     frequency — see NewRuleIndex. Every literal token a posted pattern
//     mentions has an ID in one dictionary, and a token's postings are a
//     contiguous run of one array indexed by ID, so each title token costs
//     one dictionary lookup. An AttrExists rule posts under its exact
//     attribute name, and an AttrValue rule under its exact attribute name
//     and the fold key of its value (attrValueKey), because Rule.Matches reads
//     the attribute case-sensitively and compares the value with
//     strings.EqualFold: an item draws only the value rules for the values it
//     has. Rules with no witness (pure wildcards) sit on an unconditional
//     scan list.
//   - Prefilter. A posted pattern rule is proposed only if the item's title
//     signature intersects the mask of every witness set of its pattern,
//     which makes the lookup conjunctive over all witness sets without a
//     second posting structure. Both are built from dictionary IDs (see
//     idBit): the signature ORs the bits of the title tokens the dictionary
//     holds, a mask the bits of its set's tokens. Every witness token is in
//     the dictionary, so a title holding one has its bit set, and a token no
//     rule mentions sets no bit at all. The test reads only the posting for
//     almost every rule: each carries the signature bits of the rule's
//     rarest other witness set (see probe), and only rules whose pattern has
//     a third set, or whose other set has too many bits to carry, read the
//     masks left over, which the rule's arena record holds.
//
// Both steps only ever drop rules that cannot match: CandidatesFor
// over-approximates but never misses a matching rule.
//
// Deciding a candidate reads the arena (see arena): the pattern compiled to a
// shift-and program over dictionary IDs (pattern.AppendProgram), run against
// the title's ID sequence, which the dictionary lookups produce. The
// live rule is read only for a candidate that matched (its guards, then its
// place in the verdict). Titles of more than pattern.MaxProgramTitle tokens,
// attribute rules and patterns without a program form take Rule.Matches.
//
// Postings hold slots — dense int32 positions into rules — not pointers, so
// anything kept per rule (telemetry, the arena) is aligned with rules, and
// ascending slot order is rule input order.
//
// An index can be reslotted (IndexedExecutor.Successor): the next snapshot's
// index shares this one's dictionary, postings, prefilter and arena and only
// gets its own rules slice, in which a rule that is no longer active leaves a
// dead (nil) slot that every lookup skips. Sharing the dictionary shares the
// token bits, so the shared masks stay exact. Shared postings may keep a rule
// under a witness set that a fresh build over the new rule list would no
// longer pick as the rarest, or probe a set that is no longer the rarest other
// one. That is still sound — both are still witness sets of the same compiled
// pattern, so the rule is still proposed for every item it can match — and
// only candidate counts can differ; the next full build re-keys.
type RuleIndex struct {
	*postings
	rules []*Rule // live rule per slot, nil when dead; input order (Filter rules excluded)
	dead  int     // nil entries in rules
}

// postings is the part of a RuleIndex a reslotted index shares.
type postings struct {
	dict   map[string]int32 // every literal token a posted pattern mentions → its ID, from 1
	tokOff []uint32         // ID i's postings are posts[tokOff[i]:tokOff[i+1]]; ID 0 has none
	posts  []posting
	attrs  []attrPostings // one per exact attribute name a rule posts under, probed by name
	always []int32
	arena  arena
	keyed  []*Rule // the rules the postings were built from, one per slot
}

// idBit returns the signature bit of the token with dictionary ID id (≥ 1).
func idBit(id int32) uint64 { return 1 << (id & 63) }

// posting is one pattern rule under one of its posting tokens: the rule's
// slot and its prefilter, 8 bytes in all.
type posting struct {
	slot  int32
	probe probe
}

// probe is a posting's prefilter in one word. The posting token is in the
// title whenever the posting is visited, so the witness set the rule is
// posted under is always hit; what is left to test is the rule's other sets.
// A probe holds every signature bit of the rarest of them (chosen like the
// posting set) in three one-byte lanes — lanes beyond the set's bits repeat
// the first — so testing the lanes is exactly testing that set's mask. Two
// flags cover the rest: probeAny passes without testing the lanes (the rule
// has no other set, or its rarest other one has more than three bits), and
// probeFull sends a survivor on to the masks the lanes leave out, which the
// slot's arena record holds. Either way the test never drops a rule whose
// title signature hits every mask, and for the common two-set rule it is the
// whole test.
type probe uint32

const (
	probeLanes = 3
	probeAny   = probe(1) << 24
	probeFull  = probe(1) << 25
)

// newProbe builds the probe of a rule whose witness sets have the given
// masks, other being the index of the rarest set it is not posted under (-1
// when there is none).
func newProbe(masks []uint64, other int) probe {
	if other < 0 {
		return probeAny
	}
	m := masks[other]
	if bits.OnesCount64(m) > probeLanes {
		return probeAny | probeFull
	}
	var pr probe
	if len(masks) > 2 {
		pr = probeFull
	}
	first := probe(bits.TrailingZeros64(m))
	for lane := 0; lane < probeLanes; lane++ {
		b := first
		if m != 0 {
			b, m = probe(bits.TrailingZeros64(m)), m&(m-1)
		}
		pr |= b << (8 * lane)
	}
	return pr
}

// admits reports whether a title with signature sig may match the posting's
// rule: the probe passes, and so do the slot's left-over masks when the probe
// asks for them.
func (idx *RuleIndex) admits(p posting, sig uint64) bool {
	pr := p.probe
	if pr&probeAny == 0 && (sig>>(pr&63)|sig>>(pr>>8&63)|sig>>(pr>>16&63))&1 == 0 {
		return false
	}
	return pr&probeFull == 0 || idx.arena.masksHit(p.slot, sig)
}

// arena holds, per slot, what deciding the slot's rule reads, in one
// exactly sized word array: slot s's record is words[off[s]:off[s+1]],
//
//	meta word     bit 15 (noProgram): decide by Rule.Matches; bits 0–14: the
//	              number of masks that follow
//	masks         the witness masks the posting's probe lanes do not cover
//	              (probeFull only), four words each, low word first
//	program       the pattern's shift-and program (pattern.AppendProgram)
//
// Records are in slot order, so the rules a title draws read nearby words.
type arena struct {
	off   []uint32
	words []uint16
}

const noProgram = 1 << 15

// record returns slot s's record.
func (a *arena) record(s int32) []uint16 { return a.words[a.off[s]:a.off[s+1]] }

// masksHit reports whether sig intersects every mask in slot s's record.
func (a *arena) masksHit(s int32, sig uint64) bool {
	rec := a.record(s)
	for i := 1; i+4 <= 1+4*int(rec[0]&^noProgram); i += 4 {
		m := uint64(rec[i]) | uint64(rec[i+1])<<16 | uint64(rec[i+2])<<32 | uint64(rec[i+3])<<48
		if m&sig == 0 {
			return false
		}
	}
	return true
}

// program returns slot s's program, or false when the slot has none.
func (a *arena) program(s int32) ([]uint16, bool) {
	rec := a.record(s)
	return rec[1+4*int(rec[0]&^noProgram):], rec[0]&noProgram == 0
}

// appendRecord appends a record to the arena: the masks of p's witness sets
// that the posting probe pr leaves untested (none unless pr has probeFull; key
// and other are the posting set and the probe set, -1 when absent), and the
// pattern's program with token IDs from id, or noProgram when p is nil or has
// no program form.
func (a *arena) appendRecord(p *pattern.Pattern, masks []uint64, pr probe, key, other int, id func(string) int) {
	meta := len(a.words)
	a.words = append(a.words, 0)
	if pr&probeFull != 0 {
		for i, m := range masks {
			if i == key || i == other && pr&probeAny == 0 || a.words[meta] == noProgram-1 {
				continue // a mask past the count's range only weakens the prefilter
			}
			a.words = append(a.words, uint16(m), uint16(m>>16), uint16(m>>32), uint16(m>>48))
			a.words[meta]++
		}
	}
	ok := false
	if p != nil {
		a.words, ok = p.AppendProgram(a.words, id)
	}
	if !ok {
		a.words[meta] |= noProgram
	}
	a.off = append(a.off, uint32(len(a.words)))
}

// attrPostings are the attribute rules on one exact attribute name.
type attrPostings struct {
	name   string
	exists []int32        // AttrExists rules
	values []valuePosting // AttrValue rules, sorted by key, then slot
}

// valuePosting is an AttrValue rule's slot under attrValueKey(Value).
type valuePosting struct {
	key  uint64
	slot int32
}

// appendTo appends the slots of the rules on ap's attribute that an item
// whose value for it is val may fire.
func (ap *attrPostings) appendTo(buf []int32, val string) []int32 {
	buf = append(buf, ap.exists...)
	if len(ap.values) == 0 {
		return buf
	}
	k := attrValueKey(val)
	i, _ := slices.BinarySearchFunc(ap.values, k, func(p valuePosting, k uint64) int { return cmp.Compare(p.key, k) })
	for ; i < len(ap.values) && ap.values[i].key == k; i++ {
		buf = append(buf, ap.values[i].slot)
	}
	return buf
}

// maxDeadShare bounds reslotting: an index whose rules would leave more than
// 1/maxDeadShare of its slots dead is rebuilt instead, so dead postings never
// dominate candidate generation.
const maxDeadShare = 8

// NewRuleIndex builds an index over the given rules. Filter rules are not
// item-matched and are excluded.
//
// Each pattern rule posts under its rarest witness set, where a token's
// frequency is the number of the given rules that mention it as a witness
// (each rule counted once per token) and a set's cost is the sum over its
// tokens. Head-anchored rules (<qualifier>.*<head>) therefore post under the
// head noun a few dozen rules share, not under a qualifier ("premium") that
// hundreds do. Ties go to the set with fewer tokens, then to the later
// element — the head comes last. The posting's probe carries the rarest of
// the remaining sets under the same order. Both choices are pure functions
// of the rule list: they need no corpus and do not depend on rule order. A
// set's mask, the OR of its tokens' bits, is taken in the pass that sums its
// cost.
func NewRuleIndex(rules []*Rule) *RuleIndex {
	// A world-shaped record is six words; eight per rule keeps the arena
	// from regrowing during the build, and compact trims the rest.
	p := &postings{
		dict:  map[string]int32{},
		arena: arena{off: make([]uint32, 1, len(rules)+1), words: make([]uint16, 0, 8*len(rules))},
		keyed: make([]*Rule, 0, len(rules)),
	}
	attrAt := map[string]int{} // exact attribute name → its index in p.attrs
	attr := func(name string) *attrPostings {
		i, ok := attrAt[name]
		if !ok {
			i = len(p.attrs)
			attrAt[name] = i
			p.attrs = append(p.attrs, attrPostings{name: name})
		}
		return &p.attrs[i]
	}
	intern := func(tok string) int {
		id, ok := p.dict[tok]
		if !ok {
			id = int32(len(p.dict) + 1)
			p.dict[tok] = id
		}
		return int(id)
	}
	// df[id].n is the number of rules with token id in a witness set; last
	// is the 1-based position of the latest rule counted, so a token
	// repeated within one rule counts once. Witness tokens are interned
	// first, so they have the lowest IDs.
	type tally struct{ n, last int32 }
	df := []tally{{}}
	for i, r := range rules {
		if !r.IsPatternKind() {
			continue
		}
		for _, ws := range r.Pattern().RequiredAlternatives() {
			for _, tok := range ws {
				id := intern(tok)
				if id == len(df) {
					df = append(df, tally{})
				}
				if t := &df[id]; t.last != int32(i+1) {
					t.n, t.last = t.n+1, int32(i+1)
				}
			}
		}
	}
	// keyedPosting is a posting before it is grouped by token ID.
	type keyedPosting struct {
		id int32
		posting
	}
	pending := make([]keyedPosting, 0, len(rules))
	var costBuf [8]int
	var maskBuf [8]uint64
	for _, r := range rules {
		slot := int32(len(p.keyed))
		switch {
		case r.IsPatternKind():
			sets := r.Pattern().RequiredAlternatives()
			costs, masks := costBuf[:0], maskBuf[:0]
			for _, ws := range sets {
				c, m := 0, uint64(0)
				for _, tok := range ws {
					id := intern(tok)
					c += int(df[id].n)
					m |= idBit(int32(id))
				}
				costs, masks = append(costs, c), append(masks, m)
			}
			key, other := rarestTwo(sets, costs)
			pr := probeAny
			if key < 0 {
				p.always = append(p.always, slot)
			} else {
				pr = newProbe(masks, other)
				for _, k := range sets[key] {
					pending = append(pending, keyedPosting{int32(intern(k)), posting{slot: slot, probe: pr}})
				}
			}
			p.arena.appendRecord(r.Pattern(), masks, pr, key, other, intern)
		case r.Kind == AttrExists:
			ap := attr(r.Attr)
			ap.exists = append(ap.exists, slot)
			p.arena.appendRecord(nil, nil, 0, -1, -1, nil)
		case r.Kind == AttrValue:
			ap := attr(r.Attr)
			ap.values = append(ap.values, valuePosting{key: attrValueKey(r.Value), slot: slot})
			p.arena.appendRecord(nil, nil, 0, -1, -1, nil)
		default:
			continue // Filter rules act on predictions, not items
		}
		p.keyed = append(p.keyed, r)
	}
	// Group the postings by token ID, keeping slot order within each ID.
	p.tokOff = make([]uint32, len(p.dict)+2)
	for _, kp := range pending {
		p.tokOff[kp.id+1]++
	}
	for i := 1; i < len(p.tokOff); i++ {
		p.tokOff[i] += p.tokOff[i-1]
	}
	p.posts = make([]posting, len(pending))
	fill := slices.Clone(p.tokOff)
	for _, kp := range pending {
		p.posts[fill[kp.id]] = kp.posting
		fill[kp.id]++
	}
	p.compact()
	return &RuleIndex{postings: p, rules: p.keyed}
}

// compact trims the arena to its exact size, so the index keeps no append
// slack (it lives as long as every snapshot that reslots it), and sorts the
// value postings for lookup; slots were appended ascending, so a stable sort
// by key keeps equal keys in slot order.
func (p *postings) compact() {
	for i := range p.attrs {
		slices.SortStableFunc(p.attrs[i].values, func(a, b valuePosting) int { return cmp.Compare(a.key, b.key) })
	}
	p.arena.off = slices.Clone(p.arena.off)
	p.arena.words = slices.Clone(p.arena.words)
}

// attrValueKey hashes an attribute value so that any two values
// strings.EqualFold reports equal get the same key: each rune is replaced by
// the smallest rune of its unicode.SimpleFold orbit (the orbits are exactly
// EqualFold's equivalence classes), and invalid UTF-8 decodes as U+FFFD, as it
// does in EqualFold. Different values may collide; a collision only adds a
// candidate that Rule.Matches then rejects. It does not allocate.
func attrValueKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range s { // an invalid byte ranges as utf8.RuneError (U+FFFD)
		h ^= uint64(foldRune(r))
		h *= 1099511628211
	}
	return h
}

// foldRune returns the smallest rune in r's unicode.SimpleFold orbit.
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	least := r
	for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
		least = min(least, f)
	}
	return least
}

// reslot returns an index over rules that shares idx's postings, or false
// when rules need a fresh build: some indexed rule has no slot in idx (it was
// added, or it is another rulebase's rule under a known ID, as after a load
// into a fresh rulebase), rules are not in idx's slot order, or more
// than 1/maxDeadShare of the slots would be dead. Rules are matched to slots by
// ID in one merge walk — both lists are in rulebase insertion order — and a
// rule keeps its slot only if it is posted exactly as the slot's rule was:
// same kind, same compiled pattern (Clone shares it, so a lifecycle or
// confidence update does), same attribute and same value. Everything else a
// verdict reads comes from rules itself.
func (idx *RuleIndex) reslot(rules []*Rule) (*RuleIndex, bool) {
	keyed := idx.keyed
	live := make([]*Rule, len(keyed))
	s, n := 0, 0
	for _, r := range rules {
		if !r.IsPatternKind() && r.Kind != AttrExists && r.Kind != AttrValue {
			continue
		}
		if r.ID == "" {
			return nil, false
		}
		for s < len(keyed) && keyed[s].ID != r.ID {
			s++
		}
		if s == len(keyed) {
			return nil, false
		}
		if k := keyed[s]; k.Kind != r.Kind || k.compiled != r.compiled || k.Attr != r.Attr || k.Value != r.Value {
			return nil, false
		}
		live[s] = r
		s++
		n++
	}
	dead := len(keyed) - n
	if dead*maxDeadShare > len(keyed) {
		return nil, false
	}
	return &RuleIndex{postings: idx.postings, rules: live, dead: dead}, true
}

// rarestTwo returns the index of the witness set with the lowest cost (the
// posting set; costs[i] is set i's total token frequency), and the index of
// the cheapest of the others (the probe set); -1 where there is none. Ties go
// to the set with fewer tokens, then to the later element.
func rarestTwo(sets [][]string, costs []int) (key, other int) {
	key, other = -1, -1
	var keyCost, otherCost int
	for i, ws := range sets {
		cost := costs[i]
		switch {
		case key < 0 || cost < keyCost || cost == keyCost && len(ws) <= len(sets[key]):
			key, keyCost, other, otherCost = i, cost, key, keyCost
		case other < 0 || cost < otherCost || cost == otherCost && len(ws) <= len(sets[other]):
			other, otherCost = i, cost
		}
	}
	return key, other
}

// Rules returns the live indexed rules in input order (Filter rules
// excluded). Without dead slots the returned slice is shared; callers must not
// mutate it.
func (idx *RuleIndex) Rules() []*Rule {
	if idx.dead == 0 {
		return idx.rules
	}
	return slices.DeleteFunc(slices.Clone(idx.rules), func(r *Rule) bool { return r == nil })
}

// Len returns the number of live indexed rules.
func (idx *RuleIndex) Len() int { return len(idx.rules) - idx.dead }

// CandidatesFor returns the rules that could match the item, deduplicated,
// in rule input order. The result is a superset of the actually matching
// rules. Deduplication is by slot, so rules that were never added to a
// rulebase (and share the empty ID) are still all considered.
func (idx *RuleIndex) CandidatesFor(it *catalog.Item) []*Rule {
	var title pattern.IDTitle
	slots := idx.candidateSlots(it, nil, &title)
	out := make([]*Rule, len(slots))
	for i, s := range slots {
		out[i] = idx.rules[s]
	}
	return out
}

// candidateSlots appends the item's live candidate slots to buf, ascending
// and deduplicated, and adds the ID of each title token to title. It interns
// the title first — one dictionary lookup per token, which also yields the
// title signature — and then walks the postings of each ID. Ascending is
// rule input order: evaluating candidates in it is what makes a per-item
// verdict list its evidence exactly as the sequential oracle does. A probe
// that asks for the full prefilter reads the slot's arena record; dead slots
// are dropped after gathering, so an index without them pays nothing for the
// check. It does not allocate unless the title has more than 64 tokens or buf
// overflows.
func (idx *RuleIndex) candidateSlots(it *catalog.Item, buf []int32, title *pattern.IDTitle) []int32 {
	var idBuf [64]int32
	ids := idBuf[:0]
	var sig uint64
	for _, tok := range it.TitleTokens() {
		id := idx.dict[tok]
		if id <= pattern.MaxProgramID {
			title.Add(uint16(id))
		} else {
			title.Add(0)
		}
		if id != 0 {
			sig |= idBit(id)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		for _, p := range idx.posts[idx.tokOff[id]:idx.tokOff[id+1]] {
			if idx.admits(p, sig) {
				buf = append(buf, p.slot)
			}
		}
	}
	for i := range idx.attrs {
		ap := &idx.attrs[i]
		if val, ok := it.Attrs[ap.name]; ok {
			buf = ap.appendTo(buf, val)
		}
	}
	buf = append(buf, idx.always...)
	if idx.dead > 0 {
		buf = slices.DeleteFunc(buf, func(s int32) bool { return idx.rules[s] == nil })
	}
	return sortedUnique(buf)
}

// matches reports whether the live rule in slot s matches the item whose
// interned title is title: by the slot's program when it has one and the
// title fits, reading the rule only for its guards once the pattern matched;
// by Rule.Matches otherwise.
func (idx *RuleIndex) matches(s int32, it *catalog.Item, title *pattern.IDTitle) bool {
	if prog, ok := idx.arena.program(s); ok {
		if m, ok := pattern.MatchProgram(prog, title); ok {
			return m && idx.rules[s].guardsHold(it)
		}
	}
	return idx.rules[s].Matches(it)
}

// sortedUnique sorts s ascending and removes duplicates in place. The
// already-sorted unique case (single-key rules produce it naturally) is
// detected in one scan and returned untouched.
func sortedUnique(s []int32) []int32 {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			slices.Sort(s)
			return slices.Compact(s)
		}
	}
	return s
}

// DataIndex answers the dual question — "which items could this rule
// match?" — over a fixed development corpus D. It is the §4 rule-development
// accelerator: an analyst iterating on a rule re-runs it against D on every
// edit, and the index reduces each run from |D| matches to the posting-list
// union.
type DataIndex struct {
	items   []*catalog.Item
	byToken map[string][]int32
	byAttr  map[string][]int32
}

// NewDataIndex indexes the corpus by title token and attribute name.
func NewDataIndex(items []*catalog.Item) *DataIndex {
	di := &DataIndex{
		items:   items,
		byToken: map[string][]int32{},
		byAttr:  map[string][]int32{},
	}
	for i, it := range items {
		seen := map[string]bool{}
		for _, tok := range it.TitleTokens() {
			if !seen[tok] {
				seen[tok] = true
				di.byToken[tok] = append(di.byToken[tok], int32(i))
			}
		}
		for attr := range it.Attrs {
			di.byAttr[strings.ToLower(attr)] = append(di.byAttr[strings.ToLower(attr)], int32(i))
		}
	}
	return di
}

// Items returns a copy of the indexed corpus slice. The index's own ordering
// is load-bearing (posting lists are positions into it), so callers must not
// be able to reorder or truncate the internal slice through the accessor.
func (di *DataIndex) Items() []*catalog.Item {
	return append([]*catalog.Item(nil), di.items...)
}

// Size returns the number of indexed items without copying.
func (di *DataIndex) Size() int { return len(di.items) }

// CandidateItems returns indices of items that could match the rule (a
// superset of actual matches). Pattern rules with no witness and unknown
// kinds fall back to the whole corpus. With the corpus in hand the index
// unions the witness set whose posting lists are shortest in total.
func (di *DataIndex) CandidateItems(r *Rule) []int32 {
	switch {
	case r.IsPatternKind():
		sets := r.Pattern().RequiredAlternatives()
		costs := make([]int, len(sets))
		for i, ws := range sets {
			for _, tok := range ws {
				costs[i] += len(di.byToken[tok])
			}
		}
		key, _ := rarestTwo(sets, costs)
		if key < 0 {
			return di.all()
		}
		return di.unionTokens(sets[key])
	case r.Kind == AttrExists || r.Kind == AttrValue:
		return append([]int32(nil), di.byAttr[strings.ToLower(r.Attr)]...)
	default:
		return di.all()
	}
}

// Matches runs the rule over the corpus using the index and returns the
// indices of actually matching items.
func (di *DataIndex) Matches(r *Rule) []int32 {
	var out []int32
	for _, i := range di.CandidateItems(r) {
		if r.Matches(di.items[i]) {
			out = append(out, i)
		}
	}
	return out
}

// Coverage returns |Cov(r, D)|: the number of items the rule touches — the
// quantity the §5.2 selection algorithms maximize.
func (di *DataIndex) Coverage(r *Rule) int { return len(di.Matches(r)) }

func (di *DataIndex) all() []int32 {
	out := make([]int32, len(di.items))
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// unionTokens merges posting lists for the given tokens, deduplicated and
// ascending. Lists are already sorted by construction.
func (di *DataIndex) unionTokens(tokens []string) []int32 {
	if len(tokens) == 1 {
		return append([]int32(nil), di.byToken[tokens[0]]...)
	}
	seen := map[int32]bool{}
	var out []int32
	for _, tok := range tokens {
		for _, i := range di.byToken[tok] {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	// Restore ascending order for determinism.
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
