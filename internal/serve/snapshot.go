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
//     so a snapshot can never mix two versions.
//   - Engine: publishes the current Snapshot through an atomic.Pointer, so
//     readers never take the rulebase lock. Mutations (via
//     Rulebase.Subscribe) wake a debounced async rebuild-and-swap loop;
//     Acquire is the synchronous version-cached fallback for callers that
//     need an up-to-date snapshot without Start.
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
	version   uint64
	activeIDs []string // sorted IDs of the active rules, for audit traceability
	gate      *core.IndexedExecutor
	rules     *core.IndexedExecutor
	filters   map[string]string // target type -> filter rule ID

	// cache is the engine-owned verdict cache, attached after construction
	// (the engine outlives snapshot generations; entries self-invalidate on
	// version mismatch). Nil means uncached; read-only once attached.
	cache *VerdictCache
}

// BuildSnapshot freezes rb's active rule set into executors. The version and
// rule list come from one Rulebase.ActiveView critical section. Executors
// are instrumented into reg (obs.Default when nil) under the same series
// labels the Chimera pipeline has always used ("exec"/"gate",
// "exec"/"rules"), so per-rule telemetry accumulates across snapshot
// generations.
func BuildSnapshot(rb *core.Rulebase, reg *obs.Registry) *Snapshot {
	version, active := rb.ActiveView()
	var gateRules, classRules []*core.Rule
	filters := map[string]string{}
	ids := make([]string, 0, len(active))
	for _, r := range active {
		ids = append(ids, r.ID)
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
	sort.Strings(ids)
	return &Snapshot{
		version:   version,
		activeIDs: ids,
		gate:      core.NewInstrumentedExecutor(gateRules, reg, "exec", "gate"),
		rules:     core.NewInstrumentedExecutor(classRules, reg, "exec", "rules"),
		filters:   filters,
	}
}

// Version returns the rulebase logical clock this snapshot was built at.
func (s *Snapshot) Version() uint64 { return s.version }

// ActiveIDs returns the sorted IDs of the rules active in this snapshot.
// This is the traceability hook: together with the rulebase audit log it
// proves every verdict came from exactly one rulebase state (the race tests
// replay the audit log against it). The returned slice is the caller's own
// copy — mutating it cannot corrupt the shared immutable snapshot.
func (s *Snapshot) ActiveIDs() []string {
	return append([]string(nil), s.activeIDs...)
}

// Gate returns the Gate-Keeper executor (Gate rules only).
func (s *Snapshot) Gate() *core.IndexedExecutor { return s.gate }

// Rules returns the classifier executor (whitelist, blacklist, attribute and
// type-restrict rules).
func (s *Snapshot) Rules() *core.IndexedExecutor { return s.rules }

// RuleTelemetry exposes the classifier executor for its telemetry (health
// reports over this snapshot's lifetime). It is the executor Rules returns.
func (s *Snapshot) RuleTelemetry() *core.IndexedExecutor { return s.rules }

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

// Cache returns the verdict cache attached to this snapshot's engine, or nil
// when serving uncached.
func (s *Snapshot) Cache() *VerdictCache { return s.cache }

// ApplyCached evaluates the classifier rules against one item through the
// engine's verdict cache: a hit returns the verdict memoized for (the item's
// fingerprint, this snapshot's version) — byte-equal to a fresh Apply, since
// verdicts are immutable and the key pins both the classification input and
// the exact rulebase version — and concurrent misses on one fingerprint
// coalesce into a single evaluation. Identical to Apply when no cache is
// configured.
//
// Note the telemetry trade: a cache hit skips the executor, so
// per-rule fired/selectivity telemetry counts evaluations, not servings.
func (s *Snapshot) ApplyCached(it *catalog.Item) *core.Verdict {
	if s.cache == nil {
		return s.rules.Apply(it)
	}
	v, _ := s.cache.Do(it.Fingerprint(), s.version, func() *core.Verdict {
		return s.rules.Apply(it)
	})
	return v
}

// ApplyBatch evaluates the classifier rules against a whole batch through
// the executor's batch-inverted join (core.IndexedExecutor.ApplyBatch),
// returning verdicts positionally aligned with items and byte-identical to
// per-item Apply. This is the default high-throughput classification path.
func (s *Snapshot) ApplyBatch(items []*catalog.Item, workers int) []*core.Verdict {
	return s.rules.ApplyBatch(items, workers)
}

// ApplyBatchCached is ApplyBatch through the verdict cache: cached verdicts
// are filled in directly and only the misses go through the batch-inverted
// join (as one sub-batch), whose verdicts are then inserted for the next
// round. Positionally aligned with items and verdict-equivalent to
// ApplyBatch; identical to it when no cache is configured. The batch path
// does its own miss collection instead of per-item single-flight — the batch
// is the coalescing unit.
func (s *Snapshot) ApplyBatchCached(items []*catalog.Item, workers int) []*core.Verdict {
	if s.cache == nil {
		return s.rules.ApplyBatch(items, workers)
	}
	out := make([]*core.Verdict, len(items))
	var missIdx []int
	var miss []*catalog.Item
	for i, it := range items {
		if v, ok := s.cache.Get(it.Fingerprint(), s.version); ok {
			out[i] = v
		} else {
			missIdx = append(missIdx, i)
			miss = append(miss, it)
		}
	}
	if len(miss) > 0 {
		vs := s.rules.ApplyBatch(miss, workers)
		for k, i := range missIdx {
			out[i] = vs[k]
			s.cache.Put(miss[k].Fingerprint(), s.version, vs[k])
		}
	}
	return out
}

// GateApplyBatch evaluates the Gate-Keeper rules against a whole batch,
// batch-inverted, aligned with items.
func (s *Snapshot) GateApplyBatch(items []*catalog.Item, workers int) []*core.Verdict {
	return s.gate.ApplyBatch(items, workers)
}
