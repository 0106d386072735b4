package chimera

import "repro/internal/catalog"

// ReferenceDecisions classifies items one by one under the pipeline's
// current snapshot, deciding stage 3 with the reference Voting Master
// (refVoteDecision) and without writing audit records.
func ReferenceDecisions(p *Pipeline, items []*catalog.Item) []Decision {
	snap := p.Snapshots().Acquire()
	out := make([]Decision, len(items))
	for i, it := range items {
		if d, ok := p.gateDecision(it, snap, snap.Gate().Apply(it)); ok {
			out[i] = d
			continue
		}
		out[i] = refVoteDecision(p, it, snap, snap.Apply(it))
	}
	return out
}
