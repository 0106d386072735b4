package chimera

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/mining"
	"repro/internal/obs"
)

// This file implements the §2.2 "scale up" requirement: items the Voting
// Master declines — a new vendor's unfamiliar types, say — go to the manual
// classification team; their labels come back as training data AND as mined
// rules, so the system starts classifying such items on its own ("we need a
// way to extend Chimera to classify these new items as soon as possible").

// OnboardReport summarizes one onboarding round.
type OnboardReport struct {
	// Declined is how many declined items were sent to the manual team.
	Declined int
	// Labeled is how many came back with labels (all, with a simulated
	// manual team).
	Labeled int
	// NewRuleIDs are the rules mined from the labeled declines.
	NewRuleIDs []string
	// NewTypes lists labels that were previously unknown to the system.
	NewTypes []string
}

// OnboardDeclined routes a batch's declined items through the manual team
// (the simulated analyst), adds the labels as training data, mines
// classification rules from them (§5.2 machinery, zero-false-positive
// against the labeled declines), and deploys up to maxRules of the highest
// confidence×coverage rules. It retrains the ensemble once at the end.
func (p *Pipeline) OnboardDeclined(res *BatchResult, maxRules int) (*OnboardReport, error) {
	rep := &OnboardReport{}
	known := map[string]bool{}
	for _, t := range p.typeUniverse() {
		known[t] = true
	}

	manualReq := obs.NewRequestID("onboard")
	var labeled []*catalog.Item
	for _, d := range res.Decisions {
		if !d.Declined {
			continue
		}
		rep.Declined++
		// The manual team labels the item (simulation: the analyst oracle).
		label := p.Analyst.Label(d.Item, nil)
		labeled = append(labeled, d.Item.Relabeled(label))
		rep.Labeled++
		if !known[label] {
			known[label] = true
			rep.NewTypes = append(rep.NewTypes, label)
		}
		// Provenance: the item's decision is now a manual-team label.
		if p.Audit.Enabled() && p.Audit.ShouldCapture(true) {
			p.Audit.Observe(&obs.DecisionRecord{
				RequestID:       manualReq,
				ItemID:          d.Item.ID,
				SnapshotVersion: res.SnapshotVersion,
				ModelGeneration: d.ModelGeneration,
				Path:            obs.PathManual,
				Outcome:         obs.OutcomeLabeled,
				Type:            label,
				Reason:          "manual-label after " + d.Reason,
			})
		}
	}
	sort.Strings(rep.NewTypes)
	if len(labeled) == 0 {
		return rep, nil
	}

	// Mine rules from the labeled declines; the §5.2 zero-FP filter runs
	// against this labeled set.
	mined, err := mining.GenerateRules(labeled, mining.Options{
		MinSupport:      0.05,
		MaxRulesPerType: 10,
	})
	if err != nil {
		return rep, err
	}
	cands := append(append([]mining.Candidate(nil), mined.High...), mined.Low...)
	sort.SliceStable(cands, func(i, j int) bool {
		si := cands[i].Confidence * float64(len(cands[i].Coverage))
		sj := cands[j].Confidence * float64(len(cands[j].Coverage))
		if si != sj {
			return si > sj
		}
		return cands[i].Rule.Source < cands[j].Rule.Source
	})
	if maxRules > 0 && len(cands) > maxRules {
		cands = cands[:maxRules]
	}
	for _, c := range cands {
		c.Rule.Provenance = "onboarding"
		if id, err := p.Rules.Add(c.Rule, p.Analyst.Name); err == nil {
			rep.NewRuleIDs = append(rep.NewRuleIDs, id)
		}
	}

	p.Train(labeled)
	return rep, nil
}
