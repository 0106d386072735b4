package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// This file is the execution-side half of the §4 maintenance telemetry:
// an executor decorator that records which rules fire, how selective the
// rule index is, and how long each Apply takes — the substrate for
// "detecting problematic rules" and retiring dead ones. The decorator is
// verdict-transparent: it produces verdicts identical to the executor it
// wraps (a tested property), so it can stay on in production.

// Metric families recorded by InstrumentedExecutor. All counters; latency
// is a histogram over obs.LatencyBuckets, sampled (see LatencySampleEvery).
const (
	MetricExecApplies    = "core_exec_applies_total"
	MetricExecCandidates = "core_exec_candidates_total"
	MetricExecMatched    = "core_exec_matched_total"
	MetricExecLatency    = "core_exec_apply_seconds"
	MetricRuleFired      = "core_rule_fired_total"
	MetricRuleEffective  = "core_rule_effective_total"
)

// LatencySampleEvery is the Apply-latency sampling stride: one in every N
// applies is timed and recorded into MetricExecLatency. Sampling keeps the
// decorator's overhead under the 5% budget (two clock reads plus a histogram
// observation cost more than the rest of the telemetry combined) while still
// populating the latency distribution within a few thousand applies.
const LatencySampleEvery = 16

// ruleTelemetry is the per-rule counter pair: fired counts every match,
// effective counts matches whose asserted type survived the final verdict.
type ruleTelemetry struct {
	fired     *obs.Counter
	effective *obs.Counter
}

// matchedRule is one matched rule plus its telemetry handle, buffered during
// the match loop so effectiveness can be settled after vetoes are known.
type matchedRule struct {
	r   *Rule
	tel ruleTelemetry
	ok  bool // false for rules without an ID (no per-rule series)
}

// InstrumentedExecutor decorates an Executor with per-rule hit counts,
// candidate-vs-matched index selectivity, and per-Apply latency, all
// recorded into an obs.Registry. When the wrapped executor is an
// IndexedExecutor the decorator drives the index itself so it can observe
// CandidatesFor directly; any other Executor is instrumented generically
// (latency and per-rule hits only, reconstructed from the verdict).
type InstrumentedExecutor struct {
	inner Executor
	idx   *RuleIndex // non-nil fast path: replicate IndexedExecutor.Apply

	byRule map[*Rule]ruleTelemetry // read-only after construction
	rules  []*Rule

	applies    *obs.Counter
	candidates *obs.Counter
	matched    *obs.Counter
	latency    *obs.Histogram
	seq        atomic.Int64 // Apply sequence number, drives latency sampling

	reg    *obs.Registry // retained for the lazy batch matcher
	labels []string
	bmOnce sync.Once
	bm     *BatchMatcher
}

// NewInstrumentedExecutor wraps inner, recording into reg (obs.Default()
// when nil). The optional labels (alternating name,value pairs) distinguish
// the executor-level series when several executors share a registry, e.g.
// "exec","gate" vs "exec","rules"; per-rule series are labeled by rule ID
// alone, so telemetry keeps accumulating when the executor is rebuilt after
// a rulebase change. Rules with an empty ID are aggregated into the
// executor-level counters only, so prefer rules that went through a
// Rulebase.
func NewInstrumentedExecutor(inner Executor, reg *obs.Registry, labels ...string) *InstrumentedExecutor {
	if reg == nil {
		reg = obs.Default()
	}
	e := &InstrumentedExecutor{
		inner:      inner,
		applies:    reg.Counter(MetricExecApplies, labels...),
		candidates: reg.Counter(MetricExecCandidates, labels...),
		matched:    reg.Counter(MetricExecMatched, labels...),
		latency:    reg.Histogram(MetricExecLatency, obs.LatencyBuckets, labels...),
		reg:        reg,
		labels:     labels,
	}
	reg.Help(MetricRuleFired, "times each rule matched an item")
	reg.Help(MetricRuleEffective, "times each rule's assertion survived the final verdict")
	switch ex := inner.(type) {
	case *IndexedExecutor:
		e.idx = ex.Index()
		e.rules = e.idx.Rules()
	case *SequentialExecutor:
		e.rules = ex.rules
	}
	e.byRule = resolveRuleTelemetry(reg, e.rules)
	return e
}

// resolveRuleTelemetry looks up the fired/effective counter pair of every
// rule that has an ID.
func resolveRuleTelemetry(reg *obs.Registry, rules []*Rule) map[*Rule]ruleTelemetry {
	byRule := make(map[*Rule]ruleTelemetry, len(rules))
	for _, r := range rules {
		if r.ID == "" {
			continue
		}
		byRule[r] = ruleTelemetry{
			fired:     reg.Counter(MetricRuleFired, "rule", r.ID),
			effective: reg.Counter(MetricRuleEffective, "rule", r.ID),
		}
	}
	return byRule
}

// Apply implements Executor. The verdict is identical to what the wrapped
// executor would produce: the indexed fast path replicates
// IndexedExecutor.Apply (same candidate iteration, same absorb order), and
// the generic path returns the inner verdict untouched.
func (e *InstrumentedExecutor) Apply(it *catalog.Item) *Verdict {
	sampled := e.seq.Add(1)%LatencySampleEvery == 0
	var start time.Time
	if sampled {
		start = time.Now()
	}
	var v *Verdict
	if e.idx != nil {
		cands := e.idx.CandidatesFor(it)
		v = newVerdict()
		// Matched rules and their telemetry, buffered so the effectiveness
		// pass below needs no second byRule lookup and no iteration over the
		// verdict's maps (both measurably expensive at executor throughput).
		// The array stays on the stack unless an item matches >24 rules.
		var scratch [24]matchedRule
		mt := scratch[:0]
		for _, r := range cands {
			if r.Matches(it) {
				v.absorb(r)
				tel, ok := e.byRule[r]
				if ok {
					tel.fired.Inc()
				}
				mt = append(mt, matchedRule{r: r, tel: tel, ok: ok})
			}
		}
		e.candidates.Add(int64(len(cands)))
		e.matched.Add(int64(len(mt)))
		// Effectiveness: asserting rules whose target type survived vetoes
		// and constraints (Verdict.FinalTypes semantics, allocation free).
		for _, m := range mt {
			if !m.ok {
				continue
			}
			switch m.r.Kind {
			case Whitelist, Gate, AttrExists:
				t := m.r.TargetType
				if len(v.Vetoed[t]) == 0 && (v.Allowed == nil || v.Allowed[t]) {
					m.tel.effective.Inc()
				}
			}
		}
	} else {
		v = e.inner.Apply(it)
		for _, rs := range v.Asserted {
			e.countFired(rs)
		}
		for _, rs := range v.Vetoed {
			e.countFired(rs)
		}
		e.countFired(v.Constraints)
		for t, rs := range v.Asserted {
			if len(v.Vetoed[t]) > 0 {
				continue
			}
			if v.Allowed != nil && !v.Allowed[t] {
				continue
			}
			for _, r := range rs {
				if tel, ok := e.byRule[r]; ok {
					tel.effective.Inc()
				}
			}
		}
	}
	e.applies.Inc()
	if sampled {
		e.latency.Observe(time.Since(start).Seconds())
	}
	return v
}

// ApplyBatch implements BatchApplier. When the wrapped executor is indexed
// it evaluates through a lazily-built instrumented BatchMatcher, which
// records the batch_* metric families and keeps feeding the same exec-level
// and per-rule counter series Apply uses (the per-rule table is this
// executor's own, and the registry hands out one counter per name+labels, so
// both paths accumulate into one view). Per-Apply
// latency sampling does not apply on the batch path; batch cost is visible
// to callers' own span/histogram instrumentation instead. Non-indexed
// executors fall back to the item-at-a-time reference path through Apply,
// preserving full telemetry.
func (e *InstrumentedExecutor) ApplyBatch(items []*catalog.Item, workers int) []*Verdict {
	if e.idx == nil {
		return ExecuteBatchItemwise(e, items, workers)
	}
	e.bmOnce.Do(func() { e.bm = newInstrumentedBatchMatcher(e.idx, e.reg, e.byRule, e.labels...) })
	return e.bm.MatchBatch(items, workers)
}

func (e *InstrumentedExecutor) countFired(rs []*Rule) {
	for _, r := range rs {
		if tel, ok := e.byRule[r]; ok {
			tel.fired.Inc()
		}
	}
}

// Applies returns how many items this executor has processed.
func (e *InstrumentedExecutor) Applies() int64 { return e.applies.Value() }

// Selectivity returns the average candidate-set size and the
// matched/candidate ratio observed so far (0,0 before any Apply or when the
// wrapped executor is not indexed).
func (e *InstrumentedExecutor) Selectivity() (avgCandidates, matchRatio float64) {
	n := e.applies.Value()
	c := e.candidates.Value()
	if n == 0 || c == 0 {
		return 0, 0
	}
	return float64(c) / float64(n), float64(e.matched.Value()) / float64(c)
}

// Rule-health issue tags, ordered by severity for ranking.
const (
	HealthNeverFired   = "never-fired"
	HealthAlwaysVetoed = "always-vetoed"
	HealthLowPrecision = "low-precision"
)

// RuleHealth is one rule's telemetry-derived health record — the §4
// "detecting problematic rules" report: rules that never fire (dead weight,
// retirement candidates), rules whose assertions are always overridden by
// vetoes or constraints (wasted evaluation, likely stale), and rules whose
// crowd-estimated precision fell below the floor.
type RuleHealth struct {
	RuleID     string   `json:"rule_id"`
	Kind       string   `json:"kind"`
	TargetType string   `json:"target_type,omitempty"`
	Fired      int64    `json:"fired"`
	Effective  int64    `json:"effective"`
	Confidence float64  `json:"confidence"`
	Issues     []string `json:"issues,omitempty"`
}

// Unhealthy reports whether the record carries any issue.
func (h RuleHealth) Unhealthy() bool { return len(h.Issues) > 0 }

// Health builds the per-rule health report from the telemetry accumulated
// so far, unhealthiest first (more issues, then fewer firings, then ID).
// minConfidence is the precision floor below which a rule is tagged
// low-precision (the paper's business gate, e.g. 0.92; pass 0 to disable).
// Only assertion kinds (whitelist, gate, attr-exists) can be always-vetoed.
// The report is empty until the executor has applied at least one item.
func (e *InstrumentedExecutor) Health(minConfidence float64) []RuleHealth {
	if e.applies.Value() == 0 {
		return nil
	}
	out := make([]RuleHealth, 0, len(e.rules))
	for _, r := range e.rules {
		tel, ok := e.byRule[r]
		if !ok {
			continue
		}
		h := RuleHealth{
			RuleID:     r.ID,
			Kind:       r.Kind.String(),
			TargetType: r.TargetType,
			Fired:      tel.fired.Value(),
			Effective:  tel.effective.Value(),
			Confidence: r.Confidence,
		}
		asserting := r.Kind == Whitelist || r.Kind == Gate || r.Kind == AttrExists
		switch {
		case h.Fired == 0:
			h.Issues = append(h.Issues, HealthNeverFired)
		case asserting && h.Effective == 0:
			h.Issues = append(h.Issues, HealthAlwaysVetoed)
		}
		if minConfidence > 0 && r.Confidence < minConfidence {
			h.Issues = append(h.Issues, HealthLowPrecision)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Issues) != len(out[j].Issues) {
			return len(out[i].Issues) > len(out[j].Issues)
		}
		if out[i].Fired != out[j].Fired {
			return out[i].Fired < out[j].Fired
		}
		return out[i].RuleID < out[j].RuleID
	})
	return out
}
