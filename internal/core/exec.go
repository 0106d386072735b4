package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
)

// Verdict is the outcome of executing a rule set on one item. Semantics are
// the staged model §4 motivates: whitelist-family rules assert candidate
// types, blacklist rules veto types, and attribute-value / type-restrict
// rules constrain the admissible type set. Because each stage accumulates into sets, the verdict
// is independent of execution order within a stage — the property E5
// verifies empirically.
type Verdict struct {
	// Asserted maps each asserted type to the rules that asserted it
	// (Whitelist, Gate and AttrExists rules).
	Asserted map[string][]*Rule
	// Vetoed maps each vetoed type to the blacklist rules that vetoed it.
	Vetoed map[string][]*Rule
	// Allowed is the intersection of AttrValue constraints; nil means
	// unconstrained. An empty non-nil set means contradictory constraints.
	Allowed map[string]bool
	// Constraints lists the AttrValue rules that fired.
	Constraints []*Rule
}

// newVerdict returns an empty verdict.
func newVerdict() *Verdict {
	return &Verdict{Asserted: map[string][]*Rule{}, Vetoed: map[string][]*Rule{}}
}

// absorb applies one matching rule to the verdict.
func (v *Verdict) absorb(r *Rule) {
	switch r.Kind {
	case Whitelist, Gate, AttrExists:
		v.Asserted[r.TargetType] = append(v.Asserted[r.TargetType], r)
	case Blacklist:
		v.Vetoed[r.TargetType] = append(v.Vetoed[r.TargetType], r)
	case AttrValue, TypeRestrict:
		v.Constraints = append(v.Constraints, r)
		allowed := map[string]bool{}
		for _, t := range r.AllowedTypes {
			allowed[t] = true
		}
		if v.Allowed == nil {
			v.Allowed = allowed
		} else {
			for t := range v.Allowed {
				if !allowed[t] {
					delete(v.Allowed, t)
				}
			}
		}
	}
}

// survives reports whether an assertion of t stands in the final verdict: not
// vetoed, and inside the Allowed constraint when one exists.
func (v *Verdict) survives(t string) bool {
	return len(v.Vetoed[t]) == 0 && (v.Allowed == nil || v.Allowed[t])
}

// FinalTypes returns the surviving asserted types, sorted.
func (v *Verdict) FinalTypes() []string {
	var out []string
	for t := range v.Asserted {
		if v.survives(t) {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Evidence returns a copy of the rules that asserted t (nil when t did not
// survive). Verdicts may be shared — a verdict cache (serve.VerdictCache)
// hands the same Verdict to every coalesced caller — so the internal evidence
// slice must not leak where an append could clobber a neighbor's view.
func (v *Verdict) Evidence(t string) []*Rule {
	for _, ft := range v.FinalTypes() {
		if ft == t {
			return append([]*Rule(nil), v.Asserted[t]...)
		}
	}
	return nil
}

// FiredRuleIDs returns the sorted, de-duplicated IDs of every rule that
// matched the item in an asserting or constraining role (Asserted across all
// types, plus Constraints). Together with VetoingRuleIDs it is the rule-level
// provenance a decision audit record carries.
func (v *Verdict) FiredRuleIDs() []string {
	seen := map[string]bool{}
	for _, rules := range v.Asserted {
		for _, r := range rules {
			seen[r.ID] = true
		}
	}
	for _, r := range v.Constraints {
		seen[r.ID] = true
	}
	return sortedKeys(seen)
}

// VetoingRuleIDs returns the sorted, de-duplicated IDs of every blacklist
// rule that vetoed a type for the item — the rules a declined item's audit
// record names as the reason.
func (v *Verdict) VetoingRuleIDs() []string {
	seen := map[string]bool{}
	for _, rules := range v.Vetoed {
		for _, r := range rules {
			seen[r.ID] = true
		}
	}
	return sortedKeys(seen)
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Explain renders a human-readable justification for the verdict — the §3.2
// "liability concerns may require certain predictions to be explainable"
// capability that motivates rules in the first place.
func (v *Verdict) Explain() string {
	var b []byte
	app := func(s string) { b = append(b, s...) }
	finals := v.FinalTypes()
	if len(finals) == 0 {
		app("no type survives the rule verdict\n")
	}
	for _, t := range finals {
		app("type " + t + " because:\n")
		for _, r := range v.Asserted[t] {
			app("  + " + r.String() + "\n")
		}
	}
	// Sort vetoed types before rendering: ranging over the map directly made
	// the "vetoed by" sections appear in nondeterministic order across runs,
	// which broke byte-comparison of explanations (audit logs, golden tests).
	vetoed := make([]string, 0, len(v.Vetoed))
	for t := range v.Vetoed {
		if len(v.Asserted[t]) > 0 {
			vetoed = append(vetoed, t)
		}
	}
	sort.Strings(vetoed)
	for _, t := range vetoed {
		app("type " + t + " vetoed by:\n")
		for _, r := range v.Vetoed[t] {
			app("  - " + r.String() + "\n")
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
	v := newVerdict()
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
// the index proposes, one item at a time, optionally recording telemetry
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
// confidence updates), the successor shares the postings, the prefilter and
// the whole telemetry table, and only gets its own slot-aligned rule slice.
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

// Apply implements Executor.
func (e *IndexedExecutor) Apply(it *catalog.Item) *Verdict {
	tel := e.tel
	sampled := tel != nil && tel.seq.Add(1)%LatencySampleEvery == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	// Both arrays stay on the stack unless an item draws more than 64
	// postings or matches more than 24 rules.
	var slotBuf [64]int32
	var matchBuf [24]int32
	slots := e.idx.candidateSlots(it, slotBuf[:0])
	matched := matchBuf[:0]
	v := newVerdict()
	for _, s := range slots {
		if r := e.idx.rules[s]; r.Matches(it) {
			v.absorb(r)
			if tel != nil {
				matched = append(matched, s)
			}
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
