// Package serve is the snapshot-isolated concurrent serving layer over the
// rule system. The paper's Chimera deployment (§3.3) classifies a continuous
// item stream while analysts and the maintenance loop concurrently add,
// tweak, disable and retire rules; serving must not stall on rule
// maintenance, and a batch in flight must see exactly one rulebase state.
//
// The package provides three pieces:
//
//   - Snapshot: the active rule set of a core.Rulebase frozen at one version
//     into immutable pre-built executors (indexed, with telemetry) plus the
//     filter table. Built from a single atomic read (Rulebase.ActiveView),
//     so a snapshot can never mix two rulebase states.
//   - Engine: publishes the current Snapshot through an atomic.Pointer, so
//     readers never take the rulebase lock. While a server holds it
//     (Engine.Start), every committed change wakes a rebuild-and-swap loop
//     that builds at once; Acquire is the synchronous version-cached path,
//     sharing one single-flight build with the loop. Either way snapshot
//     N+1 is built from snapshot N: a disable, enable, retire or confidence
//     change reuses N's rule indexes and telemetry and only re-slots the
//     rule list; an added rule takes a full build (Snapshot.successor).
//   - Server: a bounded worker pool with queue-depth backpressure (explicit
//     shed on overflow) and graceful drain on shutdown. Each request is
//     classified entirely against the snapshot current when a worker picks
//     it up — snapshot isolation: in-flight batches finish on their old
//     snapshot while a rebuild swaps the pointer underneath.
package serve

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// Snapshot is one immutable, fully built view of a rulebase version. All
// fields are read-only after construction; a snapshot is safe for concurrent
// use by any number of readers and never observes later mutations (disabled
// rules keep firing in old snapshots — that is the isolation contract, not a
// bug: the batch that started under version v finishes under version v).
type Snapshot struct {
	version uint64
	active  []*core.Rule // the active rules as read, insertion order (see ActiveIDs)
	gate    *core.IndexedExecutor
	rules   *core.IndexedExecutor
	filters map[string]string // target type -> filter rule ID
}

// BuildSnapshot freezes rb's active rule set into executors: the cold full
// build. The version and rule list come from one Rulebase.ActiveView critical
// section. Executors are instrumented into reg (obs.Default when nil) under
// the same series labels the Chimera pipeline has always used ("exec"/"gate",
// "exec"/"rules"), so per-rule telemetry accumulates across snapshot
// generations.
func BuildSnapshot(rb *core.Rulebase, reg *obs.Registry) *Snapshot {
	s, gateRules, classRules := readSnapshot(rb)
	s.gate = core.NewInstrumentedExecutor(gateRules, reg, "exec", "gate")
	s.rules = core.NewInstrumentedExecutor(classRules, reg, "exec", "rules")
	return s
}

// successor builds the snapshot of rb's current state from s
// (core.IndexedExecutor.Successor, per stage) and reports whether both stages
// shared s's rule indexes — a delta build — rather than rebuilding one. The
// result equals BuildSnapshot(rb, reg) for the registry s was built into.
func (s *Snapshot) successor(rb *core.Rulebase) (next *Snapshot, delta bool) {
	next, gateRules, classRules := readSnapshot(rb)
	var gateShared, rulesShared bool
	next.gate, gateShared = s.gate.Successor(gateRules)
	next.rules, rulesShared = s.rules.Successor(classRules)
	return next, gateShared && rulesShared
}

// readSnapshot takes one ActiveView of rb and returns a snapshot without
// executors plus the rules of its two stages, in rulebase insertion order.
func readSnapshot(rb *core.Rulebase) (s *Snapshot, gateRules, classRules []*core.Rule) {
	version, active := rb.ActiveView()
	filters := map[string]string{}
	classRules = make([]*core.Rule, 0, len(active))
	for _, r := range active {
		switch r.Kind {
		case core.Gate:
			gateRules = append(gateRules, r)
		case core.Filter:
			filters[r.TargetType] = r.ID
		default:
			// Whitelist, Blacklist, AttrExists, AttrValue, TypeRestrict —
			// the classifier stage.
			classRules = append(classRules, r)
		}
	}
	return &Snapshot{version: version, active: active, filters: filters}, gateRules, classRules
}

// Version returns the rulebase logical clock this snapshot was built at: the
// one rulebase state it holds, and what a cache keys its results by.
func (s *Snapshot) Version() uint64 { return s.version }

// ActiveIDs returns the sorted IDs of the rules active in this snapshot.
// This is the traceability hook: together with the rulebase audit log it
// proves every verdict came from exactly one rulebase state (the race tests
// replay the audit log against it). The list is sorted on each call, off the
// rebuild path; the returned slice is the caller's own.
func (s *Snapshot) ActiveIDs() []string {
	ids := make([]string, len(s.active))
	for i, r := range s.active {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	return ids
}

// Gate returns the Gate-Keeper executor (Gate rules only).
func (s *Snapshot) Gate() *core.IndexedExecutor { return s.gate }

// Rules returns the classifier executor (whitelist, blacklist, attribute and
// type-restrict rules).
func (s *Snapshot) Rules() *core.IndexedExecutor { return s.rules }

// Filters returns the active Filter table (target type → filter rule ID) as
// the caller's own copy — a mutation cannot corrupt the shared immutable
// snapshot. Hot paths that only look up one type should use FilterFor, which
// allocates nothing.
func (s *Snapshot) Filters() map[string]string {
	out := make(map[string]string, len(s.filters))
	for k, v := range s.filters {
		out[k] = v
	}
	return out
}

// FilterFor returns the filter rule ID suppressing the given target type, if
// any — the allocation-free per-item lookup the classify path uses.
func (s *Snapshot) FilterFor(targetType string) (ruleID string, filtered bool) {
	ruleID, filtered = s.filters[targetType]
	return ruleID, filtered
}

// NumFilters returns the number of active Filter rules.
func (s *Snapshot) NumFilters() int { return len(s.filters) }

// Apply evaluates the classifier rules against one item — a convenience for
// callers that serve verdicts directly rather than full pipeline decisions.
func (s *Snapshot) Apply(it *catalog.Item) *core.Verdict { return s.rules.Apply(it) }

// ApplyBatch evaluates the classifier rules against a whole batch, Apply on
// each item across workers goroutines (core.IndexedExecutor.ApplyBatch),
// returning verdicts positionally aligned with items.
func (s *Snapshot) ApplyBatch(items []*catalog.Item, workers int) []*core.Verdict {
	return s.rules.ApplyBatch(items, workers)
}

// GateApplyBatch evaluates the Gate-Keeper rules against a whole batch, the
// way ApplyBatch does the classifier rules.
func (s *Snapshot) GateApplyBatch(items []*catalog.Item, workers int) []*core.Verdict {
	return s.gate.ApplyBatch(items, workers)
}
