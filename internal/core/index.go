package core

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/pattern"
)

// RuleIndex answers "which rules could match this item?" without scanning
// the whole rulebase — the §5.3 solution: "index these rules, so that given
// a particular data item we can quickly locate those rules that are likely
// to match".
//
// Candidate generation has two steps, and both live here rather than in
// Rule.Matches, so the sequential oracle stays independent of them:
//
//   - Posting. A pattern rule posts under one of its witness sets
//     (pattern.RequiredAlternatives): a title can only match if it contains
//     one of those tokens. Which set is decided by rule-side document
//     frequency — see NewRuleIndex. Attribute rules post under their
//     attribute name. Rules with no witness (pure wildcards) sit on an
//     unconditional scan list.
//   - Prefilter. A posted rule is proposed only if the item's title signature
//     intersects every witness mask of its pattern (pattern.MayMatch), which
//     makes the lookup conjunctive over all witness sets without a second
//     posting structure.
//
// Both steps only ever drop rules that cannot match: CandidatesFor
// over-approximates but never misses a matching rule.
//
// Postings hold slots — dense int32 positions into rules — not pointers, so
// anything kept per rule (telemetry) is a slice aligned with rules, and
// ascending slot order is rule input order.
//
// An index can be reslotted (IndexedExecutor.Successor): the next snapshot's
// index shares this one's postings and prefilter and only gets its own rules
// slice, in which a rule that is no longer active leaves a dead (nil) slot that
// every lookup skips. Shared postings may keep a rule under a witness set that
// a fresh build over the new rule list would no longer pick as the rarest.
// That is still sound — it is still a witness set of the same compiled
// pattern, so the rule is still proposed for every item it can match — and
// only candidate counts can differ; the next full build re-keys.
type RuleIndex struct {
	*postings
	rules []*Rule // live rule per slot, nil when dead; input order (Filter rules excluded)
	dead  int     // nil entries in rules
}

// postings is the part of a RuleIndex a reslotted index shares.
type postings struct {
	byToken map[string][]int32
	byAttr  map[string][]int32
	always  []int32
	keyed   []*Rule // the rules the postings were built from, one per slot
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
// element — the head comes last. The choice is a pure function of the rule
// list: it needs no corpus and does not depend on rule order.
func NewRuleIndex(rules []*Rule) *RuleIndex {
	p := &postings{
		byToken: map[string][]int32{},
		byAttr:  map[string][]int32{},
	}
	// df[tok].n is the number of rules with tok in a witness set; last is
	// the 1-based position of the latest rule counted, so a token repeated
	// within one rule counts once.
	type tally struct{ n, last int32 }
	df := map[string]tally{}
	for i, r := range rules {
		if !r.IsPatternKind() {
			continue
		}
		for _, ws := range r.Pattern().RequiredAlternatives() {
			for _, tok := range ws {
				if t := df[tok]; t.last != int32(i+1) {
					df[tok] = tally{n: t.n + 1, last: int32(i + 1)}
				}
			}
		}
	}
	for _, r := range rules {
		slot := int32(len(p.keyed))
		switch {
		case r.IsPatternKind():
			keys := chooseKeys(r.Pattern(), func(tok string) int { return int(df[tok].n) })
			if keys == nil {
				p.always = append(p.always, slot)
				break
			}
			for _, k := range keys {
				p.byToken[k] = append(p.byToken[k], slot)
			}
		case r.Kind == AttrExists || r.Kind == AttrValue:
			attr := strings.ToLower(r.Attr)
			p.byAttr[attr] = append(p.byAttr[attr], slot)
		default:
			continue // Filter rules act on predictions, not items
		}
		p.keyed = append(p.keyed, r)
	}
	return &RuleIndex{postings: p, rules: p.keyed}
}

// reslot returns an index over rules that shares idx's postings, or false
// when rules need a fresh build: some indexed rule has no slot in idx (it was
// added, or a load replaced it), rules are not in idx's slot order, or more
// than 1/maxDeadShare of the slots would be dead. Rules are matched to slots by
// ID in one merge walk — both lists are in rulebase insertion order — and a
// rule keeps its slot only if it is posted exactly as the slot's rule was:
// same kind, same compiled pattern (Clone shares it, so a lifecycle or
// confidence update does) and same attribute. Everything else a verdict reads
// comes from rules itself.
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
		if k := keyed[s]; k.Kind != r.Kind || k.compiled != r.compiled || k.Attr != r.Attr {
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

// chooseKeys returns the witness set of p whose tokens are rarest in total
// under freq, or nil when p has none. Ties go to the set with fewer tokens,
// then to the later element.
func chooseKeys(p *pattern.Pattern, freq func(tok string) int) []string {
	var keys []string
	best := 0
	for _, ws := range p.RequiredAlternatives() {
		cost := 0
		for _, tok := range ws {
			cost += freq(tok)
		}
		if keys == nil || cost < best || (cost == best && len(ws) <= len(keys)) {
			keys, best = ws, cost
		}
	}
	return keys
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
	slots := idx.candidateSlots(it, nil)
	out := make([]*Rule, len(slots))
	for i, s := range slots {
		out[i] = idx.rules[s]
	}
	return out
}

// candidateSlots appends the item's live candidate slots to buf, ascending
// and deduplicated. Ascending is rule input order: evaluating candidates in it
// is what makes a per-item verdict list its evidence exactly as the sequential
// oracle does. The prefilter reads the slot's keyed rule, whose compiled
// pattern a live rule in the slot shares; dead slots are dropped after
// gathering, so an index without them pays nothing for the check.
func (idx *RuleIndex) candidateSlots(it *catalog.Item, buf []int32) []int32 {
	sig := it.TitleSignature()
	for _, tok := range it.TitleTokens() {
		for _, s := range idx.byToken[tok] {
			if idx.keyed[s].compiled.MayMatch(sig) {
				buf = append(buf, s)
			}
		}
	}
	for attr := range it.Attrs {
		buf = append(buf, idx.byAttr[strings.ToLower(attr)]...)
	}
	buf = append(buf, idx.always...)
	if idx.dead > 0 {
		buf = slices.DeleteFunc(buf, func(s int32) bool { return idx.rules[s] == nil })
	}
	return sortedUnique(buf)
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
		keys := chooseKeys(r.Pattern(), func(tok string) int { return len(di.byToken[tok]) })
		if keys == nil {
			return di.all()
		}
		return di.unionTokens(keys)
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
