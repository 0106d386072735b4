package core

import (
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// This file is the execution-side half of the §4 maintenance telemetry: the
// table an IndexedExecutor records into when built by NewInstrumentedExecutor
// — which rules fire, how selective the rule index is, how long each Apply
// takes — the substrate for "detecting problematic rules" and retiring dead
// ones. Telemetry lives inside the kernel as one nil-checkable table rather
// than a decorator that would have to repeat the candidate loop to observe it;
// it never changes a verdict (a tested property), so it can stay on in
// production.

// Metric families recorded by an instrumented IndexedExecutor. All counters;
// latency is a histogram over obs.LatencyBuckets, sampled (see
// LatencySampleEvery).
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
// telemetry's overhead under the 5% budget (two clock reads plus a histogram
// observation cost more than the rest of the telemetry combined) while still
// populating the latency distribution within a few thousand applies.
const LatencySampleEvery = 16

// ruleTelemetry is the per-rule counter pair: fired counts every match,
// effective counts matches whose asserted type survived the final verdict.
// The zero value belongs to a rule without an ID, which has no per-rule series.
type ruleTelemetry struct {
	fired     *obs.Counter
	effective *obs.Counter
}

// execTelemetry is the executor-level half of what an instrumented
// IndexedExecutor records into; the per-rule half is its ruleTel table. The
// counters are registry instances (one per name+labels), so a successor
// executor shares this struct and keeps accumulating into the same series.
type execTelemetry struct {
	reg        *obs.Registry // resolves per-rule counters for rules new to an executor
	applies    *obs.Counter
	candidates *obs.Counter
	matched    *obs.Counter
	latency    *obs.Histogram
	seq        atomic.Int64 // Apply sequence number, drives latency sampling
}

// NewInstrumentedExecutor is NewIndexedExecutor with telemetry recorded into
// reg (obs.Default() when nil), which Health and Selectivity read. The
// optional labels (alternating name,value pairs) distinguish the
// executor-level series when several executors share a registry, e.g.
// "exec","gate" vs "exec","rules"; per-rule series are labeled by rule ID
// alone, so telemetry keeps accumulating when the executor is rebuilt after
// a rulebase change. Rules with an empty ID are aggregated into the
// executor-level counters only, so prefer rules that went through a
// Rulebase.
func NewInstrumentedExecutor(rules []*Rule, reg *obs.Registry, labels ...string) *IndexedExecutor {
	if reg == nil {
		reg = obs.Default()
	}
	e := NewIndexedExecutor(rules)
	tel := &execTelemetry{
		reg:        reg,
		applies:    reg.Counter(MetricExecApplies, labels...),
		candidates: reg.Counter(MetricExecCandidates, labels...),
		matched:    reg.Counter(MetricExecMatched, labels...),
		latency:    reg.Histogram(MetricExecLatency, obs.LatencyBuckets, labels...),
	}
	reg.Help(MetricExecApplies, "items the executor applied its rules to")
	reg.Help(MetricExecCandidates, "candidate rules the rule index returned, summed over items")
	reg.Help(MetricExecMatched, "candidate rules that matched, summed over items")
	reg.Help(MetricExecLatency, "seconds per Apply, sampled one in LatencySampleEvery")
	reg.Help(MetricRuleFired, "times each rule matched an item")
	reg.Help(MetricRuleEffective, "times each rule's assertion survived the final verdict")
	e.tel = tel
	e.ruleTel = tel.ruleTable(e.idx, nil)
	return e
}

// ruleTable returns the per-rule counters for idx's slots. A rule prev also
// had a slot for (matched by ID) reuses prev's pair; only the others are
// resolved through the registry, which is what a rebuild after a one-rule
// change would otherwise spend most of its time on.
func (tel *execTelemetry) ruleTable(idx *RuleIndex, prev *IndexedExecutor) []ruleTelemetry {
	var carried map[string]ruleTelemetry
	if prev != nil && len(prev.ruleTel) > 0 {
		carried = make(map[string]ruleTelemetry, len(prev.ruleTel))
		for s, r := range prev.idx.keyed {
			if r.ID != "" {
				carried[r.ID] = prev.ruleTel[s]
			}
		}
	}
	out := make([]ruleTelemetry, len(idx.keyed))
	for s, r := range idx.keyed {
		if r.ID == "" {
			continue
		}
		rt, ok := carried[r.ID]
		if !ok {
			rt = ruleTelemetry{
				fired:     tel.reg.Counter(MetricRuleFired, "rule", r.ID),
				effective: tel.reg.Counter(MetricRuleEffective, "rule", r.ID),
			}
		}
		out[s] = rt
	}
	return out
}

// recordApply settles one Apply: candidates proposed, the matched slots, and
// — now that v is final and vetoes are known — which matches were effective.
func (e *IndexedExecutor) recordApply(v *Verdict, candidates int, matched []int32) {
	tel := e.tel
	tel.applies.Inc()
	tel.candidates.Add(int64(candidates))
	tel.matched.Add(int64(len(matched)))
	for _, s := range matched {
		rt := e.ruleTel[s]
		if rt.fired == nil {
			continue
		}
		rt.fired.Inc()
		if r := e.idx.rules[s]; r.asserting() && v.survives(r.TargetType) {
			rt.effective.Inc()
		}
	}
}

// Applies returns how many items this executor has processed (0 without
// telemetry).
func (e *IndexedExecutor) Applies() int64 {
	if e.tel == nil {
		return 0
	}
	return e.tel.applies.Value()
}

// Selectivity returns the average candidate-set size and the
// matched/candidate ratio observed so far (0,0 before any Apply and without
// telemetry).
func (e *IndexedExecutor) Selectivity() (avgCandidates, matchRatio float64) {
	if e.tel == nil {
		return 0, 0
	}
	n, c := e.tel.applies.Value(), e.tel.candidates.Value()
	if n == 0 || c == 0 {
		return 0, 0
	}
	return float64(c) / float64(n), float64(e.tel.matched.Value()) / float64(c)
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
// The report is empty until the executor has applied at least one item, and
// always without telemetry.
func (e *IndexedExecutor) Health(minConfidence float64) []RuleHealth {
	if e.Applies() == 0 {
		return nil
	}
	out := make([]RuleHealth, 0, e.idx.Len())
	for s, r := range e.idx.rules {
		rt := e.ruleTel[s]
		if r == nil || rt.fired == nil {
			continue
		}
		h := RuleHealth{
			RuleID:     r.ID,
			Kind:       r.Kind.String(),
			TargetType: r.TargetType,
			Fired:      rt.fired.Value(),
			Effective:  rt.effective.Value(),
			Confidence: r.Confidence,
		}
		switch {
		case h.Fired == 0:
			h.Issues = append(h.Issues, HealthNeverFired)
		case r.asserting() && h.Effective == 0:
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
