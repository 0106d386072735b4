package core

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/catalog"
	"repro/internal/randx"
)

// This file implements the §4 "rule system properties and design" agenda:
// identify desirable properties ("the output of the system remains the same
// regardless of the order in which the rules are being executed"), check
// them on concrete rulebases, and detect the conflicts that would break
// them.

// verdictFingerprint reduces a verdict to a canonical comparable form.
func verdictFingerprint(v *Verdict) string {
	finals := v.FinalTypes()
	// Include the evidence sets so "same answer for different reasons" is
	// still flagged: analysts debug via evidence (§3.2 traceability).
	var parts []string
	for _, t := range finals {
		evidence := v.AssertedBy(t)
		ids := make([]string, 0, len(evidence))
		for _, r := range evidence {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		parts = append(parts, fmt.Sprintf("%s<-%v", t, ids))
	}
	return fmt.Sprintf("%v", parts)
}

// OrderIndependenceReport is the outcome of CheckOrderIndependence.
type OrderIndependenceReport struct {
	Holds bool
	// Witness describes the first violation found: the item and the two
	// orders that disagreed. Empty when Holds.
	Witness string
	// PermutationsTried counts the rule orders evaluated.
	PermutationsTried int
}

// CheckOrderIndependence verifies that executing the rules in different
// orders yields identical verdicts on every item. For n ≤ exhaustiveLimit
// rules it tries all n! permutations; beyond that it samples trials random
// permutations with r. Under the staged set semantics of Verdict this holds
// by construction; the checker exists so a *modified* rule system design
// (e.g. first-match-wins) can be validated or refuted empirically, which is
// exactly the §4 proposal ("we can then prove that certain systems possess
// certain properties").
func CheckOrderIndependence(rules []*Rule, items []*catalog.Item, r *randx.Rand, trials int) OrderIndependenceReport {
	const exhaustiveLimit = 5
	rep := OrderIndependenceReport{Holds: true}

	baseline := make([]string, len(items))
	seq := NewSequentialExecutor(rules)
	for i, it := range items {
		baseline[i] = verdictFingerprint(seq.Apply(it))
	}
	rep.PermutationsTried = 1

	check := func(perm []int) bool {
		shuffled := make([]*Rule, len(rules))
		for i, j := range perm {
			shuffled[i] = rules[j]
		}
		ex := NewSequentialExecutor(shuffled)
		for i, it := range items {
			if fp := verdictFingerprint(ex.Apply(it)); fp != baseline[i] {
				rep.Holds = false
				rep.Witness = fmt.Sprintf("item %s: order %v gives %s, baseline %s",
					it.ID, perm, fp, baseline[i])
				return false
			}
		}
		rep.PermutationsTried++
		return true
	}

	if len(rules) <= exhaustiveLimit {
		perm := make([]int, len(rules))
		for i := range perm {
			perm[i] = i
		}
		permute(perm, 0, func(p []int) bool { return check(p) })
		return rep
	}
	for t := 0; t < trials; t++ {
		if !check(r.Perm(len(rules))) {
			return rep
		}
	}
	return rep
}

// permute enumerates permutations of s, calling f on each; f returning false
// stops the enumeration.
func permute(s []int, k int, f func([]int) bool) bool {
	if k == len(s) {
		return f(s)
	}
	for i := k; i < len(s); i++ {
		s[k], s[i] = s[i], s[k]
		if !permute(s, k+1, f) {
			s[k], s[i] = s[i], s[k]
			return false
		}
		s[k], s[i] = s[i], s[k]
	}
	return true
}

// Conflict is a whitelist/blacklist pair on the same target whose coverage
// intersects on the given corpus: every item in the intersection is asserted
// and vetoed simultaneously, so the blacklist silently wins. Surfacing these
// is part of "the system remains robust and predictable" (§4).
type Conflict struct {
	WhitelistID string
	BlacklistID string
	TargetType  string
	// Items is the number of corpus items where both fire.
	Items int
	// Example is one affected item ID.
	Example string
}

// FindConflicts reports whitelist/blacklist pairs with overlapping coverage
// on the corpus, using the data index to avoid the full cross product.
func FindConflicts(rules []*Rule, di *DataIndex) []Conflict {
	type cov struct {
		rule  *Rule
		items map[int32]bool
	}
	whites := map[string][]cov{}
	blacks := map[string][]cov{}
	for _, r := range rules {
		if r.Kind != Whitelist && r.Kind != Blacklist {
			continue
		}
		set := map[int32]bool{}
		for _, i := range di.Matches(r) {
			set[i] = true
		}
		if len(set) == 0 {
			continue
		}
		c := cov{rule: r, items: set}
		if r.Kind == Whitelist {
			whites[r.TargetType] = append(whites[r.TargetType], c)
		} else {
			blacks[r.TargetType] = append(blacks[r.TargetType], c)
		}
	}
	var out []Conflict
	targets := make([]string, 0, len(whites))
	for t := range whites {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		for _, w := range whites[t] {
			for _, b := range blacks[t] {
				n := 0
				example := ""
				for i := range w.items {
					if b.items[i] {
						n++
						if example == "" || di.items[i].ID < example {
							example = di.items[i].ID
						}
					}
				}
				if n > 0 {
					out = append(out, Conflict{
						WhitelistID: w.rule.ID, BlacklistID: b.rule.ID,
						TargetType: t, Items: n, Example: example,
					})
				}
			}
		}
	}
	return out
}

// VerdictsEqual reports whether two verdicts agree on final types and
// evidence. Exposed for tests of alternative executors.
func VerdictsEqual(a, b *Verdict) bool {
	if !reflect.DeepEqual(a.FinalTypes(), b.FinalTypes()) {
		return false
	}
	return verdictFingerprint(a) == verdictFingerprint(b)
}
