package chimera

import "repro/internal/catalog"

// ReferenceDecisions classifies items one by one under the pipeline's
// current snapshot, deciding stage 3 with the reference Voting Master
// (refVoteDecision) and without writing audit records.
func ReferenceDecisions(p *Pipeline, items []*catalog.Item) []Decision {
	snap, gen := p.Snapshots().Acquire(), p.Ensemble.Model().Generation()
	out := make([]Decision, len(items))
	for i, it := range items {
		d, ok := p.gateDecision(it, snap, snap.Gate().Apply(it))
		if !ok {
			d = refVoteDecision(p, it, snap, snap.Apply(it))
		}
		d.ModelGeneration = gen
		out[i] = d
	}
	return out
}
