package core

import (
	"slices"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/pattern"
)

// Verdict is the outcome of executing a rule set on one item. Semantics are
// the staged model §4 motivates: whitelist-family rules assert candidate
// types, blacklist rules veto types, and attribute-value / type-restrict
// rules constrain the admissible type set. Because each stage accumulates
// into sets, the verdict is independent of execution order within a stage —
// the property E5 verifies empirically.
//
// A verdict holds only the matching rules that have a role in it, in absorb
// order; every view (AssertedBy, Vetoes, Admits, FinalTypes, …) is derived
// from that list, so the empty verdict is the zero value and a verdict
// allocates nothing beyond the list. Verdicts are immutable once an executor
// returns them, and may be shared.
type Verdict struct {
	fired []*Rule // asserting, vetoing and constraining matches, in absorb order
}

// emptyVerdict is what an executor returns for an item no rule matched.
var emptyVerdict = &Verdict{}

// VerdictOf returns the verdict an executor reaches when exactly the given
// rules match, absorbed in the given order (a Filter rule, which never
// matches an item, is ignored).
func VerdictOf(rules ...*Rule) *Verdict {
	v := &Verdict{}
	for _, r := range rules {
		v.absorb(r)
	}
	return v
}

// absorb applies one matching rule to the verdict.
func (v *Verdict) absorb(r *Rule) {
	if r.asserting() || r.vetoing() || r.constraining() {
		v.fired = append(v.fired, r)
	}
}

// AssertedBy returns the rules that asserted t (Whitelist, Gate and
// AttrExists rules), in absorb order; nil when none did. The slice is the
// caller's.
func (v *Verdict) AssertedBy(t string) []*Rule {
	return v.rules(func(r *Rule) bool { return r.asserting() && r.TargetType == t })
}

// rules returns the fired rules keep selects, in absorb order, in a slice of
// exactly their number; nil when it selects none.
func (v *Verdict) rules(keep func(*Rule) bool) []*Rule {
	n := 0
	for _, r := range v.fired {
		if keep(r) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Rule, 0, n)
	for _, r := range v.fired {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// asserts reports whether some rule asserted t.
func (v *Verdict) asserts(t string) bool {
	for _, r := range v.fired {
		if r.asserting() && r.TargetType == t {
			return true
		}
	}
	return false
}

// Vetoes reports whether a blacklist rule vetoed t.
func (v *Verdict) Vetoes(t string) bool {
	for _, r := range v.fired {
		if r.vetoing() && r.TargetType == t {
			return true
		}
	}
	return false
}

// Admits reports whether t lies inside every fired constraint (AttrValue and
// TypeRestrict rules): the intersection of their allowed types. With no
// constraint every type is admitted; contradictory constraints admit none.
func (v *Verdict) Admits(t string) bool {
	for _, r := range v.fired {
		if r.constraining() && !slices.Contains(r.AllowedTypes, t) {
			return false
		}
	}
	return true
}

// Constraints returns the AttrValue and TypeRestrict rules that fired, in
// absorb order; nil when none did. The slice is the caller's.
func (v *Verdict) Constraints() []*Rule { return v.rules((*Rule).constraining) }

// survives reports whether an assertion of t stands in the final verdict: not
// vetoed, and admitted by every constraint.
func (v *Verdict) survives(t string) bool {
	return !v.Vetoes(t) && v.Admits(t)
}

// FinalTypes returns the surviving asserted types, sorted.
func (v *Verdict) FinalTypes() []string {
	var buf [8]string
	out := buf[:0]
	for _, r := range v.fired {
		if r.asserting() && !slices.Contains(out, r.TargetType) && v.survives(r.TargetType) {
			out = append(out, r.TargetType)
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Clone(out)
}

// Evidence returns a copy of the rules that asserted t (nil when t did not
// survive). Verdicts may be shared — a verdict cache (serve.VerdictCache)
// hands the same Verdict to every coalesced caller — so the internal evidence
// slice must not leak where an append could clobber a neighbor's view.
func (v *Verdict) Evidence(t string) []*Rule {
	if !v.survives(t) {
		return nil
	}
	return v.AssertedBy(t)
}

// FiredRuleIDs returns the sorted, de-duplicated IDs of every rule that
// matched the item in an asserting or constraining role. Together with
// VetoingRuleIDs it is the rule-level provenance a decision audit record
// carries.
func (v *Verdict) FiredRuleIDs() []string {
	return v.ruleIDs(func(r *Rule) bool { return r.asserting() || r.constraining() })
}

// VetoingRuleIDs returns the sorted, de-duplicated IDs of every blacklist
// rule that vetoed a type for the item — the rules a declined item's audit
// record names as the reason.
func (v *Verdict) VetoingRuleIDs() []string {
	return v.ruleIDs((*Rule).vetoing)
}

// ruleIDs returns the sorted, de-duplicated IDs of the fired rules keep
// selects, or nil when it selects none.
func (v *Verdict) ruleIDs(keep func(*Rule) bool) []string {
	var out []string
	for _, r := range v.fired {
		if keep(r) {
			if out == nil {
				out = make([]string, 0, len(v.fired))
			}
			out = append(out, r.ID)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Explain renders a human-readable justification for the verdict — the §3.2
// "liability concerns may require certain predictions to be explainable"
// capability that motivates rules in the first place. Vetoed types are listed
// sorted, so explanations compare byte for byte (audit logs, golden tests).
func (v *Verdict) Explain() string {
	var b []byte
	app := func(s string) { b = append(b, s...) }
	finals := v.FinalTypes()
	if len(finals) == 0 {
		app("no type survives the rule verdict\n")
	}
	for _, t := range finals {
		app("type " + t + " because:\n")
		for _, r := range v.fired {
			if r.asserting() && r.TargetType == t {
				app("  + " + r.String() + "\n")
			}
		}
	}
	var vetoed []string
	for _, r := range v.fired {
		if r.vetoing() && !slices.Contains(vetoed, r.TargetType) && v.asserts(r.TargetType) {
			vetoed = append(vetoed, r.TargetType)
		}
	}
	slices.Sort(vetoed)
	for _, t := range vetoed {
		app("type " + t + " vetoed by:\n")
		for _, r := range v.fired {
			if r.vetoing() && r.TargetType == t {
				app("  - " + r.String() + "\n")
			}
		}
	}
	return string(b)
}

// Executor evaluates a rule set against single items.
type Executor interface {
	Apply(it *catalog.Item) *Verdict
}

// SequentialExecutor scans every rule for every item — the §4 baseline whose
// cost motivates indexing.
type SequentialExecutor struct {
	rules []*Rule
}

// NewSequentialExecutor wraps rules (Filter rules are ignored by Apply).
func NewSequentialExecutor(rules []*Rule) *SequentialExecutor {
	return &SequentialExecutor{rules: rules}
}

// Apply implements Executor.
func (e *SequentialExecutor) Apply(it *catalog.Item) *Verdict {
	v := &Verdict{}
	for _, r := range e.rules {
		if r.Kind == Filter {
			continue
		}
		if r.Matches(it) {
			v.absorb(r)
		}
	}
	return v
}

// IndexedExecutor is the production rule kernel: it evaluates only the rules
// the index proposes, one item at a time, each from the compiled program the
// index keeps for it (RuleIndex.matches), optionally recording telemetry
// (instrument.go). All of its verdicts are byte-identical to
// SequentialExecutor's over the same rules — same types, same evidence, same
// evidence order — because Apply absorbs matches in ascending slot order,
// which is rule input order (tested as a property). It is immutable after
// construction and safe for concurrent use.
type IndexedExecutor struct {
	idx     *RuleIndex
	tel     *execTelemetry  // nil unless built by NewInstrumentedExecutor
	ruleTel []ruleTelemetry // per-rule counters aligned with idx's slots; nil without telemetry
}

// NewIndexedExecutor builds the rule index and wraps it, without telemetry.
func NewIndexedExecutor(rules []*Rule) *IndexedExecutor {
	return &IndexedExecutor{idx: NewRuleIndex(rules)}
}

// Successor returns the executor for the next snapshot's rule list, built from
// this one, and reports whether it shares this executor's rule index. rules
// must be in rulebase insertion order, as Rulebase.ActiveView returns them.
// When every indexed rule already has a slot here (disable, enable, retire and
// confidence updates), the successor shares the dictionary, the postings, the
// prefilter, the arena of compiled programs and the whole telemetry table, and
// only gets its own slot-aligned rule slice.
// Otherwise — a rule the index has never seen, a load, or too many dead slots
// (see RuleIndex.reslot) — it is a full build whose telemetry still carries
// over by rule ID: only rules new to this executor go through the registry.
// Verdicts are those of a fresh NewInstrumentedExecutor(rules, ...) either way.
func (e *IndexedExecutor) Successor(rules []*Rule) (next *IndexedExecutor, shared bool) {
	if idx, ok := e.idx.reslot(rules); ok {
		return &IndexedExecutor{idx: idx, tel: e.tel, ruleTel: e.ruleTel}, true
	}
	next = NewIndexedExecutor(rules)
	if e.tel != nil {
		next.tel = e.tel
		next.ruleTel = e.tel.ruleTable(next.idx, e)
	}
	return next, false
}

// Apply implements Executor. An item no rule matches gets the shared empty
// verdict, so it costs no allocation.
func (e *IndexedExecutor) Apply(it *catalog.Item) *Verdict {
	tel := e.tel
	sampled := tel != nil && tel.seq.Add(1)%LatencySampleEvery == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	// Both arrays stay on the stack unless an item draws more than 64
	// postings or matches more than 24 rules; so does the interned title the
	// candidate lookup fills and every program reads.
	var slotBuf [64]int32
	var matchBuf [24]int32
	var title pattern.IDTitle
	slots := e.idx.candidateSlots(it, slotBuf[:0], &title)
	matched := matchBuf[:0]
	for _, s := range slots {
		if e.idx.matches(s, it, &title) {
			matched = append(matched, s)
		}
	}
	v := emptyVerdict
	if len(matched) > 0 {
		v = &Verdict{fired: make([]*Rule, 0, len(matched))}
		for _, s := range matched {
			v.absorb(e.idx.rules[s])
		}
	}
	if tel != nil {
		e.recordApply(v, len(slots), matched)
		if sampled {
			tel.latency.Observe(time.Since(start).Seconds())
		}
	}
	return v
}

// ApplyBatch is ExecuteBatchItemwise(e, items, workers): Apply on every item,
// so the verdicts and the telemetry are those of Apply.
func (e *IndexedExecutor) ApplyBatch(items []*catalog.Item, workers int) []*Verdict {
	return ExecuteBatchItemwise(e, items, workers)
}

// Index exposes the underlying rule index (for stats and tests).
func (e *IndexedExecutor) Index() *RuleIndex { return e.idx }

// ExecuteBatchItemwise applies exec to every item individually, sharded
// across workers goroutines — the shared-nothing "cluster" substitute for the
// paper's Hadoop execution. Results are positionally aligned with items;
// workers <= 1 runs inline. With a SequentialExecutor it is the reference the
// indexed executor's verdicts are property-tested against.
func ExecuteBatchItemwise(exec Executor, items []*catalog.Item, workers int) []*Verdict {
	out := make([]*Verdict, len(items))
	if workers > len(items) {
		workers = len(items) // no point spawning more goroutines than items
	}
	if workers <= 1 {
		for i, it := range items {
			out[i] = exec.Apply(it)
		}
		return out
	}
	var wg sync.WaitGroup
	chunk := (len(items) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(items) {
			break
		}
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = exec.Apply(items[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
