package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/pattern"
)

// This file implements the §4 "rule maintenance" agenda: detect subsumed
// rules ("denim.*jeans? is subsumed by jeans? and hence should be removed"),
// duplicates, significantly overlapping rules, rules gone stale after
// taxonomy or data changes, and consolidation with its debuggability
// trade-off.

// SubsumedPair records that Specific is provably redundant given General:
// same kind, same target, and every title Specific matches is matched by
// General.
type SubsumedPair struct {
	GeneralID  string
	SpecificID string
	TargetType string
}

// FindSubsumed returns all provable subsumption pairs among the active
// pattern rules, grouped per (kind, target). The static check is sound, so
// retiring every Specific is always safe.
func FindSubsumed(rules []*Rule) []SubsumedPair {
	groups := groupPatternRules(rules)
	var out []SubsumedPair
	for _, g := range groups {
		for _, general := range g {
			if len(general.Guards) > 0 {
				// A guarded rule's language is narrowed by conditions the
				// pattern analysis cannot see; claiming it subsumes anything
				// would be unsound.
				continue
			}
			for _, specific := range g {
				if general.ID == specific.ID {
					continue
				}
				if pattern.Subsumes(general.Pattern(), specific.Pattern()) {
					// Mutual subsumption (equivalent patterns) is reported
					// once, keeping the older rule as the general one.
					if pattern.Subsumes(specific.Pattern(), general.Pattern()) &&
						general.CreatedAt > specific.CreatedAt {
						continue
					}
					out = append(out, SubsumedPair{
						GeneralID: general.ID, SpecificID: specific.ID,
						TargetType: general.TargetType,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GeneralID != out[j].GeneralID {
			return out[i].GeneralID < out[j].GeneralID
		}
		return out[i].SpecificID < out[j].SpecificID
	})
	return out
}

// DuplicatePair records two rules with identical semantics fields.
type DuplicatePair struct {
	KeepID string
	DropID string
	Why    string
}

// FindDuplicates detects rules that are exact semantic duplicates (same
// kind, target and canonicalized source / attribute condition) — the "two
// analysts independently add the same rule at different times" case. The
// older rule is kept.
func FindDuplicates(rules []*Rule) []DuplicatePair {
	seen := map[string]*Rule{}
	var out []DuplicatePair
	for _, r := range rules {
		if r.Status != Active {
			continue
		}
		var key string
		guardKey := ""
		for _, g := range r.Guards {
			guardKey += "|" + g.String()
		}
		switch {
		case r.Kind == TypeRestrict:
			allowed := append([]string(nil), r.AllowedTypes...)
			sort.Strings(allowed)
			key = fmt.Sprintf("%d|%s|%v%s", r.Kind, r.Pattern().String(), allowed, guardKey)
		case r.IsPatternKind():
			key = fmt.Sprintf("%d|%s|%s%s", r.Kind, r.TargetType, r.Pattern().String(), guardKey)
		case r.Kind == AttrExists:
			key = fmt.Sprintf("%d|%s|%s%s", r.Kind, r.TargetType, strings.ToLower(r.Attr), guardKey)
		case r.Kind == AttrValue:
			allowed := append([]string(nil), r.AllowedTypes...)
			sort.Strings(allowed)
			key = fmt.Sprintf("%d|%s|%s|%v%s", r.Kind, strings.ToLower(r.Attr), strings.ToLower(r.Value), allowed, guardKey)
		case r.Kind == Filter:
			key = fmt.Sprintf("%d|%s%s", r.Kind, r.TargetType, guardKey)
		}
		if prev, ok := seen[key]; ok {
			keep, drop := prev, r
			if drop.CreatedAt < keep.CreatedAt {
				keep, drop = drop, keep
			}
			out = append(out, DuplicatePair{KeepID: keep.ID, DropID: drop.ID, Why: "identical semantics"})
			seen[key] = keep
		} else {
			seen[key] = r
		}
	}
	return out
}

// OverlapPair records two same-target rules whose coverage on the corpus
// overlaps significantly (Jaccard ≥ threshold) without either being provably
// subsumed — candidates for analyst review or consolidation.
type OverlapPair struct {
	AID, BID    string
	TargetType  string
	Jaccard     float64
	SharedItems int
}

// FindOverlaps measures pairwise coverage overlap of same-(kind,target)
// pattern rules on the corpus behind di. Pairs with Jaccard below threshold
// are dropped.
func FindOverlaps(rules []*Rule, di *DataIndex, threshold float64) []OverlapPair {
	groups := groupPatternRules(rules)
	var out []OverlapPair
	for _, g := range groups {
		covs := make([]map[int32]bool, len(g))
		for i, r := range g {
			covs[i] = map[int32]bool{}
			for _, idx := range di.Matches(r) {
				covs[i][idx] = true
			}
		}
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if len(covs[i]) == 0 || len(covs[j]) == 0 {
					continue
				}
				inter := 0
				for it := range covs[i] {
					if covs[j][it] {
						inter++
					}
				}
				union := len(covs[i]) + len(covs[j]) - inter
				jac := float64(inter) / float64(union)
				if jac >= threshold {
					out = append(out, OverlapPair{
						AID: g[i].ID, BID: g[j].ID,
						TargetType: g[i].TargetType,
						Jaccard:    jac, SharedItems: inter,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Jaccard != out[j].Jaccard {
			return out[i].Jaccard > out[j].Jaccard
		}
		return out[i].AID < out[j].AID
	})
	return out
}

// StaleRule reports a rule that no longer touches the corpus (its vocabulary
// or taxonomy moved on) or whose target type left the taxonomy.
type StaleRule struct {
	RuleID string
	Reason string
}

// FindStale returns active rules that touch no item in the (recent) corpus
// or whose target type is not in validTypes. validTypes nil skips the
// taxonomy check — pass the current type set after a taxonomy change to
// catch the §4 "pants split into work pants and jeans" situation.
func FindStale(rules []*Rule, di *DataIndex, validTypes map[string]bool) []StaleRule {
	var out []StaleRule
	for _, r := range rules {
		if r.Status != Active {
			continue
		}
		if validTypes != nil && r.TargetType != "" && !validTypes[r.TargetType] {
			out = append(out, StaleRule{RuleID: r.ID, Reason: fmt.Sprintf("target type %q no longer in taxonomy", r.TargetType)})
			continue
		}
		if r.Kind == Filter {
			continue // filters fire on predictions, not corpus items
		}
		if len(di.Matches(r)) == 0 {
			out = append(out, StaleRule{RuleID: r.ID, Reason: "touches no item in the recent corpus"})
		}
	}
	return out
}

// Consolidation merges several single-slot whitelist rules into one
// disjunction rule while retaining the provenance needed to split back —
// the §4 trade-off: consolidation shrinks the rulebase but makes per-rule
// debugging ("which part of rule C misclassifies?") harder.
type Consolidation struct {
	MergedRule *Rule
	SourceIDs  []string
}

// ConsolidateWhitelists merges whitelist rules with the same target whose
// patterns are a single literal element (optionally followed by shared
// tail literals) into one rule with a merged alternative set. Only exact
// structural matches are merged; everything else is left alone. The merged
// rule's Note records the source IDs so SplitConsolidated can undo it.
func ConsolidateWhitelists(rules []*Rule) []Consolidation {
	type groupKey struct {
		target string
		tail   string
	}
	groups := map[groupKey][]*Rule{}
	for _, r := range rules {
		if r.Status != Active || r.Kind != Whitelist || len(r.Guards) > 0 {
			continue
		}
		elems := r.Pattern().Elems()
		if len(elems) == 0 || elems[0].Kind != pattern.KindLit || elems[0].Optional {
			continue
		}
		// Tail = canonical rendering of everything after the first element.
		tailPat := &strings.Builder{}
		ok := true
		for _, e := range elems[1:] {
			switch e.Kind {
			case pattern.KindLit:
				if e.Optional || len(e.Alts) != 1 {
					ok = false
				} else {
					tailPat.WriteString(" " + strings.Join(e.Alts[0], " "))
				}
			case pattern.KindGap:
				tailPat.WriteString(" .*")
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		k := groupKey{target: r.TargetType, tail: tailPat.String()}
		groups[k] = append(groups[k], r)
	}

	var out []Consolidation
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].target != keys[j].target {
			return keys[i].target < keys[j].target
		}
		return keys[i].tail < keys[j].tail
	})
	for _, k := range keys {
		g := groups[k]
		if len(g) < 2 {
			continue
		}
		altSet := map[string]bool{}
		var alts []string
		var ids []string
		for _, r := range g {
			ids = append(ids, r.ID)
			for _, a := range r.Pattern().Elems()[0].Alts {
				s := strings.Join(a, " ")
				if !altSet[s] {
					altSet[s] = true
					alts = append(alts, s)
				}
			}
		}
		sort.Strings(alts)
		src := "(" + strings.Join(alts, " | ") + ")" + k.tail
		merged, err := NewWhitelist(src, k.target)
		if err != nil {
			continue // defensive: never consolidate into an unparseable rule
		}
		merged.Provenance = "consolidation"
		merged.Note = "merged from " + strings.Join(ids, ",")
		out = append(out, Consolidation{MergedRule: merged, SourceIDs: ids})
	}
	return out
}

// SplitConsolidated recovers the source rule IDs of a consolidated rule, or
// nil if the rule is not a consolidation product. The rulebase retains the
// retired originals, so re-enabling them undoes the merge.
func SplitConsolidated(r *Rule) []string {
	const prefix = "merged from "
	if r.Provenance != "consolidation" || !strings.HasPrefix(r.Note, prefix) {
		return nil
	}
	return strings.Split(strings.TrimPrefix(r.Note, prefix), ",")
}

// HealthAction is one maintenance recommendation derived from runtime
// telemetry rather than static analysis — the piece of §4's agenda the
// static checks above cannot cover: a rule can be syntactically healthy yet
// dead in production.
type HealthAction struct {
	RuleID string
	// Action is "disable" (reversible scale-down) or "review" (needs an
	// analyst decision before touching the rule).
	Action string
	Reason string
}

// PlanHealthActions turns a telemetry-ranked RuleHealth report (see
// IndexedExecutor.Health) into concrete maintenance actions:
//
//   - never-fired rules observed over at least minFired total applies are
//     disable candidates (dead weight; re-enable is cheap if the corpus
//     shifts back);
//   - always-vetoed rules are disable candidates (every match was overridden
//     by a blacklist or constraint, so they only burn evaluation time);
//   - low-precision rules are flagged for analyst review — disabling them
//     automatically could silently drop recall the business depends on.
//
// minFired guards against acting on a cold executor: a rule that "never
// fired" across ten items is no signal at all.
func PlanHealthActions(health []RuleHealth, totalApplies, minApplies int64) []HealthAction {
	if totalApplies < minApplies {
		return nil
	}
	var out []HealthAction
	for _, h := range health {
		for _, issue := range h.Issues {
			switch issue {
			case HealthNeverFired:
				out = append(out, HealthAction{h.RuleID, "disable",
					fmt.Sprintf("matched nothing in %d applies", totalApplies)})
			case HealthAlwaysVetoed:
				out = append(out, HealthAction{h.RuleID, "disable",
					fmt.Sprintf("all %d matches were vetoed or constrained away", h.Fired)})
			case HealthLowPrecision:
				out = append(out, HealthAction{h.RuleID, "review",
					fmt.Sprintf("precision estimate %.3f below floor", h.Confidence)})
			}
		}
	}
	return out
}

// ApplyHealthActions executes the "disable" actions against the rulebase as
// one changeset (audit-logged with the telemetry reason) and returns the IDs
// of the rules it disabled, in insertion order. "review" actions are left to
// the analyst, and unknown, retired and already disabled rules are skipped.
func (rb *Rulebase) ApplyHealthActions(actions []HealthAction, actor string) []string {
	notes := map[string]string{}
	for _, a := range actions {
		if _, dup := notes[a.RuleID]; a.Action == "disable" && !dup {
			notes[a.RuleID] = "telemetry: " + a.Reason
		}
	}
	return rb.commitWhere("disable", actor, func(r *Rule) (string, bool) { note, ok := notes[r.ID]; return note, ok })
}

// groupPatternRules groups active pattern rules by (kind, target).
// TypeRestrict rules are excluded: they are constraints, so pattern
// generality inverts their semantics and the subsumption/overlap analyses
// built for assertion rules do not transfer.
func groupPatternRules(rules []*Rule) map[string][]*Rule {
	groups := map[string][]*Rule{}
	for _, r := range rules {
		if r.Status != Active || !r.IsPatternKind() || r.Kind == TypeRestrict {
			continue
		}
		key := fmt.Sprintf("%d|%s", r.Kind, r.TargetType)
		groups[key] = append(groups[key], r)
	}
	return groups
}
