package chimera

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// This file implements the right-hand side of Figure 2: crowdsourced sample
// evaluation, the Analysis box where analysts turn flagged pairs into patch
// rules and relabeled training data, and the scale-down / scale-up controls
// of §2.2.

// ImproveReport summarizes one EvaluateAndImprove round.
type ImproveReport struct {
	EstPrecision float64
	SampleSize   int
	Flagged      int
	// NewRuleIDs are the analyst patch blacklist rules added this round.
	NewRuleIDs []string
	// Relabeled is how many flagged pairs were corrected and added to the
	// training data.
	Relabeled int
	// PassedGate reports whether the batch met the precision gate.
	PassedGate bool
}

// EvaluateAndImprove runs the Figure-2 evaluation loop on a processed batch:
// crowd-verify a sample of 〈item, prediction〉 pairs, estimate precision,
// hand the flagged pairs to the analyst (who writes blacklist patch rules
// for recurring error patterns and relabels pairs as training data), and
// retrain. The batch is accepted when the estimate clears the gate.
func (p *Pipeline) EvaluateAndImprove(res *BatchResult) (*ImproveReport, error) {
	classified := res.Classified()
	rep := &ImproveReport{}
	if len(classified) == 0 {
		rep.PassedGate = false
		res.EstPrecision = 0
		return rep, nil
	}

	sample := p.rng.Split(fmt.Sprintf("sample-%d", len(p.history))).
		Sample(len(classified), p.cfg.SampleSize)
	crowdReq := obs.NewRequestID("crowd")
	correct := 0
	var flagged []Decision
	for _, i := range sample {
		d := classified[i]
		ok, err := p.Crowd.VerifyPair(d.Item, d.Type)
		if err != nil {
			return rep, err
		}
		if ok {
			correct++
		} else {
			flagged = append(flagged, d)
		}
		p.auditCrowd(crowdReq, res.SnapshotVersion, d, ok)
	}
	rep.SampleSize = len(sample)
	rep.Flagged = len(flagged)
	rep.EstPrecision = float64(correct) / float64(len(sample))
	rep.PassedGate = rep.EstPrecision >= p.cfg.PrecisionGate
	res.EstPrecision = rep.EstPrecision
	res.Accepted = rep.PassedGate

	p.mu.Lock()
	p.history = append(p.history, rep.EstPrecision)
	p.mu.Unlock()

	p.Obs.Counter(MetricCrowdSampled).Add(int64(rep.SampleSize))
	p.Obs.Counter(MetricFlagged).Add(int64(rep.Flagged))
	p.Obs.Gauge(MetricEstPrecision).Set(rep.EstPrecision)
	if !rep.PassedGate {
		p.Obs.Counter(MetricGateFailures).Inc()
	}

	// Analysis box: relabel flagged pairs and patch recurring patterns.
	var relabeled []*catalog.Item
	types := p.typeUniverse()
	for _, d := range flagged {
		correctType := p.Analyst.Label(d.Item, types)
		if correctType != d.Type {
			// Analyst's label becomes training truth.
			relabeled = append(relabeled, d.Item.Relabeled(correctType))
		}
	}
	rep.Relabeled = len(relabeled)

	rep.NewRuleIDs = p.patchRules(flagged)
	p.Obs.Counter(MetricPatchRules).Add(int64(len(rep.NewRuleIDs)))
	p.Obs.Counter(MetricRelabeled).Add(int64(rep.Relabeled))
	if len(relabeled) > 0 {
		p.Train(relabeled)
	}
	return rep, nil
}

// auditCrowd records one crowd-verification event: the item's prediction was
// either verified or flagged by the crowd sample. Crowd records are never
// OutcomeClassified, so they bypass sampling — the crowd sample is small and
// every one of its judgments is provenance worth keeping.
func (p *Pipeline) auditCrowd(requestID string, snapVersion uint64, d Decision, verified bool) {
	a := p.Audit
	if !a.Enabled() {
		return
	}
	outcome := obs.OutcomeFlagged
	if verified {
		outcome = obs.OutcomeVerified
	}
	if !a.ShouldCapture(true) {
		return
	}
	a.Observe(&obs.DecisionRecord{
		RequestID:       requestID,
		ItemID:          d.Item.ID,
		SnapshotVersion: snapVersion,
		ModelGeneration: d.ModelGeneration,
		Path:            obs.PathCrowd,
		Outcome:         outcome,
		Type:            d.Type,
		Reason:          d.Reason,
		Confidence:      d.Confidence,
		Fired:           d.Evidence,
	})
}

// typeUniverse lists the types the system currently knows: training labels
// plus rule targets.
func (p *Pipeline) typeUniverse() []string {
	set := map[string]bool{}
	p.mu.Lock()
	for _, it := range p.training {
		set[it.TrueType] = true
	}
	p.mu.Unlock()
	for _, t := range p.Rules.TargetsSorted() {
		set[t] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// patchRules is the analyst's "shallow behavioral modification" (§3.2):
// detect recurring error patterns among flagged pairs and write blacklist
// rules that kill the misprediction, after checking on the training data
// that the patch does not also kill a large share of correct predictions.
func (p *Pipeline) patchRules(flagged []Decision) []string {
	// Group flagged pairs by wrongly predicted type.
	byType := map[string][]Decision{}
	for _, d := range flagged {
		byType[d.Type] = append(byType[d.Type], d)
	}
	wrongTypes := make([]string, 0, len(byType))
	for t := range byType {
		wrongTypes = append(wrongTypes, t)
	}
	sort.Strings(wrongTypes)

	p.mu.Lock()
	training := p.training
	p.mu.Unlock()

	var added []string
	for _, wrongType := range wrongTypes {
		group := byType[wrongType]
		if len(group) < p.cfg.MinPatternSupport {
			continue
		}
		// Most common non-stopword token across the flagged titles.
		counts := map[string]int{}
		for _, d := range group {
			seen := map[string]bool{}
			for _, tok := range tokenize.NormalizeTokens(d.Item.TitleTokens()) {
				if !seen[tok] {
					seen[tok] = true
					counts[tok]++
				}
			}
		}
		tok, n := "", 0
		for cand, c := range counts {
			if c > n || (c == n && cand < tok) {
				tok, n = cand, c
			}
		}
		if n < p.cfg.MinPatternSupport {
			continue
		}
		// Safety check: the patch must not veto a big share of genuinely
		// correct predictions of wrongType in the training data.
		var ofType, withTok int
		for _, it := range training {
			if it.TrueType != wrongType {
				continue
			}
			ofType++
			for _, t := range it.TitleTokens() {
				if t == tok {
					withTok++
					break
				}
			}
		}
		if ofType > 0 && float64(withTok)/float64(ofType) > 0.2 {
			continue // too broad; would hurt recall of the type itself
		}
		rule, err := core.NewBlacklist(tok, wrongType)
		if err != nil {
			continue
		}
		rule.Provenance = "analyst-patch"
		rule.Note = fmt.Sprintf("patch for %d flagged errors", len(group))
		if id, err := p.Rules.Add(rule, p.Analyst.Name); err == nil {
			added = append(added, id)
		}
	}
	return added
}

// RestoreToken undoes a scale-down.
type RestoreToken struct {
	FilterID    string
	DisabledIDs []string
	TypeName    string
}

// ScaleDownType implements the §2.2 drill: temporarily stop classifying a
// type by adding a Filter rule (predictions route to manual) and disabling
// the type's own rules, as one changeset (refused whole if one of those rules
// is retired meanwhile). The returned token restores the previous state.
func (p *Pipeline) ScaleDownType(typeName, actor, note string) (*RestoreToken, error) {
	f, err := core.NewFilter(typeName)
	if err != nil {
		return nil, err
	}
	f.Provenance = "scale-down"
	f.Note = note
	tok := &RestoreToken{DisabledIDs: []string{}, TypeName: typeName}
	ops := []core.Change{{Action: "add", Rule: f}}
	for _, r := range p.Rules.Active() {
		if r.TargetType == typeName && r.Kind != core.Filter {
			ops = append(ops, core.Change{Action: "disable", RuleID: r.ID, Note: "scale-down: " + note})
			tok.DisabledIDs = append(tok.DisabledIDs, r.ID)
		}
	}
	if _, err := p.Rules.Commit(actor, ops...); err != nil {
		return nil, err
	}
	tok.FilterID = f.ID
	return tok, nil
}

// Restore retires the filter and re-enables the scaled-down rules, leaving
// out any retired since, as one changeset.
func (p *Pipeline) Restore(tok *RestoreToken, actor string) error {
	if tok == nil {
		return fmt.Errorf("chimera: nil restore token")
	}
	note := "restore " + tok.TypeName
	ops := []core.Change{{Action: "retire", RuleID: tok.FilterID, Note: note}}
	for _, id := range tok.DisabledIDs {
		if r := p.Rules.Get(id); r != nil && r.Status != core.Retired {
			ops = append(ops, core.Change{Action: "enable", RuleID: id, Note: note})
		}
	}
	_, err := p.Rules.Commit(actor, ops...)
	return err
}

// DegradedTypes inspects a batch's flagged sample (via the last
// EvaluateAndImprove round's decisions) and returns types whose predictions
// were flagged at least minFlags times — the scale-down candidates. It is a
// pure helper over decisions the caller retained.
func DegradedTypes(flagged []Decision, minFlags int) []string {
	counts := map[string]int{}
	for _, d := range flagged {
		counts[d.Type]++
	}
	var out []string
	for t, n := range counts {
		if n >= minFlags {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Describe renders a one-line summary of the pipeline state for operators.
func (p *Pipeline) Describe() string {
	s := p.Rules.Stats()
	return fmt.Sprintf("rules=%d (active %d) types=%d training=%d manualQ=%d batches=%d",
		s.Total, s.ByStatus["active"], s.TargetTypes, p.TrainingSize(), p.ManualQueue(), len(p.PrecisionHistory()))
}

// FlaggedFrom extracts the flagged decisions of a sample for reuse with
// DegradedTypes: convenience used by drills and experiments.
func FlaggedFrom(res *BatchResult, truth func(Decision) bool) []Decision {
	var out []Decision
	for _, d := range res.Classified() {
		if !truth(d) {
			out = append(out, d)
		}
	}
	return out
}

// CorrectByGroundTruth is a truth function for FlaggedFrom: it reports
// whether the decision matches the simulator's ground truth.
func CorrectByGroundTruth(d Decision) bool { return d.Type == d.Item.TrueType }
