package core

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// This file implements batch-inverted matching, the §5.3 set-oriented
// evaluation step: instead of probing the rule index once per item
// (IndexedExecutor.Apply → CandidatesFor), a whole batch is inverted into a
// token→items posting structure in one pass and joined against the rule
// index's token→rules postings (through the same signature prefilter
// RuleIndex.CandidatesFor applies), yielding (rule, candidate-items) work units.
// Units are then evaluated rule-major across workers and merged into
// positionally-aligned verdicts. The join amortizes three per-item costs:
// the candidate dedup map, the candidate output slice, and one posting-map
// probe per token occurrence (interning reduces repeats to a single cheap
// map hit). Verdicts are equivalent to the item-at-a-time executors — the
// property TestBatchMatcherEquivalenceProperty verifies.

// Metric families recorded by an instrumented BatchMatcher, alongside the
// shared core_exec_* / core_rule_* series it keeps feeding (same registry
// instances as InstrumentedExecutor, so Health() and Selectivity() keep
// working regardless of which path classified a batch).
const (
	MetricBatchBatches      = "core_batch_batches_total"
	MetricBatchItems        = "core_batch_items_total"
	MetricBatchUnits        = "core_batch_units_total"
	MetricBatchCandidates   = "core_batch_candidates_total"
	MetricBatchPruned       = "core_batch_candidates_pruned_total"
	MetricBatchInternHits   = "core_batch_intern_hits_total"
	MetricBatchInternMisses = "core_batch_intern_misses_total"
)

// batchTelemetry carries the counters an instrumented BatchMatcher records
// into. The exec-level and per-rule counters are the same registry instances
// InstrumentedExecutor uses (obs.Registry returns one counter per
// name+labels), so batch and item-at-a-time telemetry accumulate into a
// single view.
type batchTelemetry struct {
	batches    *obs.Counter
	items      *obs.Counter
	units      *obs.Counter
	candidates *obs.Counter
	pruned     *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter

	applies        *obs.Counter
	execCandidates *obs.Counter
	matched        *obs.Counter
	byRule         map[*Rule]ruleTelemetry
}

// BatchMatcher evaluates a fixed RuleIndex against item batches using the
// batch-inverted join. It is immutable after construction and safe for
// concurrent MatchBatch calls (each call builds only batch-local state).
type BatchMatcher struct {
	idx  *RuleIndex
	slot map[*Rule]int   // rule → dense slot, idx.rules input order
	tel  *batchTelemetry // nil when not instrumented
}

// NewBatchMatcher builds an uninstrumented matcher over idx.
func NewBatchMatcher(idx *RuleIndex) *BatchMatcher {
	bm := &BatchMatcher{idx: idx, slot: make(map[*Rule]int, len(idx.rules))}
	for s, r := range idx.rules {
		bm.slot[r] = s
	}
	return bm
}

// NewInstrumentedBatchMatcher builds a matcher that records batch_* metrics
// plus the shared core_exec_* / core_rule_* series into reg (obs.Default()
// when nil). labels distinguish the executor-level series, mirroring
// NewInstrumentedExecutor; per-rule series are labeled by rule ID alone.
func NewInstrumentedBatchMatcher(idx *RuleIndex, reg *obs.Registry, labels ...string) *BatchMatcher {
	if reg == nil {
		reg = obs.Default()
	}
	return newInstrumentedBatchMatcher(idx, reg, resolveRuleTelemetry(reg, idx.rules), labels...)
}

// newInstrumentedBatchMatcher is NewInstrumentedBatchMatcher over a per-rule
// counter table the caller already resolved. InstrumentedExecutor passes its
// own: a snapshot is rebuilt on every mutation, and resolving 2 x N
// label-keyed counters a second time was paid by its first batch.
func newInstrumentedBatchMatcher(idx *RuleIndex, reg *obs.Registry, byRule map[*Rule]ruleTelemetry, labels ...string) *BatchMatcher {
	bm := NewBatchMatcher(idx)
	bm.tel = &batchTelemetry{
		batches:        reg.Counter(MetricBatchBatches, labels...),
		items:          reg.Counter(MetricBatchItems, labels...),
		units:          reg.Counter(MetricBatchUnits, labels...),
		candidates:     reg.Counter(MetricBatchCandidates, labels...),
		pruned:         reg.Counter(MetricBatchPruned, labels...),
		hits:           reg.Counter(MetricBatchInternHits, labels...),
		misses:         reg.Counter(MetricBatchInternMisses, labels...),
		applies:        reg.Counter(MetricExecApplies, labels...),
		execCandidates: reg.Counter(MetricExecCandidates, labels...),
		matched:        reg.Counter(MetricExecMatched, labels...),
		byRule:         byRule,
	}
	reg.Help(MetricBatchBatches, "batches evaluated through the batch-inverted matcher")
	reg.Help(MetricBatchUnits, "(rule, candidate-items) work units produced by the batch join")
	reg.Help(MetricBatchPruned, "duplicate candidates removed by per-unit dedup")
	return bm
}

// posting is one interned batch token (or attribute name): the rules it
// activates and the items that contain it.
type posting struct {
	rules []*Rule
	items []int32
	last  int32 // last item appended — dedups repeats within one item
	title bool  // title-token posting: its rules carry patterns to prefilter by
}

// batchUnit is one (rule, candidate-items) unit of work from the join.
type batchUnit struct {
	rule    *Rule
	cand    []int32 // sorted unique candidate item indices
	matched []int32 // prefix of cand after evaluation (in-place compaction)
}

// MatchBatch evaluates the batch and returns verdicts positionally aligned
// with items, equivalent to applying the index's rules to each item
// individually. workers <= 1 evaluates and merges inline.
func (bm *BatchMatcher) MatchBatch(items []*catalog.Item, workers int) []*Verdict {
	out := make([]*Verdict, len(items))
	if len(items) == 0 {
		if bm.tel != nil {
			bm.tel.batches.Inc()
		}
		return out
	}

	// Phase 1 — invert the batch. One pass over the items interns every
	// distinct token and attribute name: the first occurrence probes the rule
	// index once and either opens a posting or records a dead id (-1, the
	// token activates no rule); every repeat costs a single intern-map hit.
	idx := bm.idx
	var posts []posting
	var sigs []uint64 // title signature per item, for the join's prefilter
	var hits, misses int64
	if len(idx.byToken) > 0 {
		tokID := make(map[string]int32, 256)
		sigs = make([]uint64, len(items))
		for i, it := range items {
			sigs[i] = it.TitleSignature()
			for _, tok := range it.TitleTokens() {
				id, ok := tokID[tok]
				if !ok {
					misses++
					rs := idx.byToken[tok]
					if rs == nil {
						tokID[tok] = -1
						continue
					}
					id = int32(len(posts))
					tokID[tok] = id
					posts = append(posts, posting{rules: rs, last: -1, title: true})
				} else {
					hits++
					if id < 0 {
						continue
					}
				}
				p := &posts[id]
				if p.last == int32(i) {
					continue // same token twice in one title
				}
				p.last = int32(i)
				p.items = append(p.items, int32(i))
			}
		}
	}
	if len(idx.byAttr) > 0 {
		// Attribute names are interned by their raw spelling, so ToLower runs
		// once per distinct spelling in the batch instead of once per item.
		attrID := make(map[string]int32, 16)
		for i, it := range items {
			for attr := range it.Attrs {
				id, ok := attrID[attr]
				if !ok {
					misses++
					rs := idx.byAttr[strings.ToLower(attr)]
					if rs == nil {
						attrID[attr] = -1
						continue
					}
					id = int32(len(posts))
					attrID[attr] = id
					posts = append(posts, posting{rules: rs, last: -1})
				} else {
					hits++
					if id < 0 {
						continue
					}
				}
				p := &posts[id]
				if p.last == int32(i) {
					continue
				}
				p.last = int32(i)
				p.items = append(p.items, int32(i))
			}
		}
	}

	// Phase 2 — join postings against the rule index: concatenate each
	// posting's item list onto every rule it activates, then sort+dedup each
	// rule's candidates into a work unit. A title-token posting appends only
	// the items whose signature passes the rule's witness masks — the same
	// prefilter CandidatesFor applies, here before a candidate is stored,
	// sorted or counted. Units are emitted in rule input order, so evaluation
	// and merge are deterministic. Always-scan rules (pure wildcards, no
	// witness token) get the full batch, matching CandidatesFor's
	// unconditional scan list.
	cand := make([][]int32, len(idx.rules))
	for pi := range posts {
		p := &posts[pi]
		for _, r := range p.rules {
			s := bm.slot[r]
			if !p.title {
				cand[s] = append(cand[s], p.items...)
				continue
			}
			pat := r.compiled
			for _, i := range p.items {
				if pat.MayMatch(sigs[i]) {
					cand[s] = append(cand[s], i)
				}
			}
		}
	}
	for _, r := range idx.always {
		all := make([]int32, len(items))
		for i := range all {
			all[i] = int32(i)
		}
		cand[bm.slot[r]] = all
	}
	units := make([]batchUnit, 0, len(idx.rules))
	var rawTotal, candTotal int64
	for s, r := range idx.rules {
		c := cand[s]
		if len(c) == 0 {
			continue
		}
		rawTotal += int64(len(c))
		c = sortedUnique(c)
		candTotal += int64(len(c))
		units = append(units, batchUnit{rule: r, cand: c})
	}

	// Phase 3 — evaluate units rule-major. Work units vary wildly in size
	// (a head-token rule may carry half the batch, a rare-token rule two
	// items), so workers pull units off a shared atomic cursor instead of
	// static sharding. Each unit compacts its candidate slice in place down
	// to the matching prefix; slices are unit-private, and item reads
	// (TitleTokens cache, Attrs, compiled patterns) are all
	// concurrency-safe.
	ew := workers
	if ew > len(units) {
		ew = len(units)
	}
	if ew <= 1 {
		for ui := range units {
			units[ui].eval(items)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < ew; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ui := int(cursor.Add(1)) - 1
					if ui >= len(units) {
						return
					}
					units[ui].eval(items)
				}
			}()
		}
		wg.Wait()
	}

	// Phase 4 — merge matched units into per-item verdicts, sharded by item
	// range so each verdict is owned by exactly one goroutine. Within a
	// shard, units absorb in rule input order — the same order
	// SequentialExecutor uses. Each unit's matched list is sorted, so the
	// shard's slice of it is found by binary search.
	mw := workers
	if mw > len(items) {
		mw = len(items)
	}
	if mw <= 1 {
		mergeUnits(out, units, items, 0, len(items))
	} else {
		var wg sync.WaitGroup
		chunk := (len(items) + mw - 1) / mw
		for w := 0; w < mw; w++ {
			lo := w * chunk
			if lo >= len(items) {
				break
			}
			hi := lo + chunk
			if hi > len(items) {
				hi = len(items)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				mergeUnits(out, units, items, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	if bm.tel != nil {
		bm.recordTelemetry(items, units, out, rawTotal, candTotal, hits, misses)
	}
	return out
}

// eval runs the unit's rule over its candidates, compacting cand in place to
// the matching prefix.
func (u *batchUnit) eval(items []*catalog.Item) {
	n := 0
	for _, i := range u.cand {
		if u.rule.Matches(items[i]) {
			u.cand[n] = i
			n++
		}
	}
	u.matched = u.cand[:n]
}

// mergeUnits scatters every unit's matches in [lo,hi) into out, allocating
// the verdicts for that shard.
func mergeUnits(out []*Verdict, units []batchUnit, items []*catalog.Item, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = newVerdict()
	}
	for ui := range units {
		u := &units[ui]
		m := u.matched
		a := sort.Search(len(m), func(k int) bool { return m[k] >= int32(lo) })
		for ; a < len(m) && m[a] < int32(hi); a++ {
			out[m[a]].absorb(u.rule)
		}
	}
}

// recordTelemetry settles the batch's counters after the verdicts are final:
// batch_* families, the shared exec-level applies/candidates/matched, and
// per-rule fired/effective (effectiveness uses the finished verdicts, same
// semantics as InstrumentedExecutor's post-veto pass).
func (bm *BatchMatcher) recordTelemetry(items []*catalog.Item, units []batchUnit, out []*Verdict, rawTotal, candTotal, hits, misses int64) {
	tel := bm.tel
	tel.batches.Inc()
	tel.items.Add(int64(len(items)))
	tel.units.Add(int64(len(units)))
	tel.candidates.Add(candTotal)
	tel.pruned.Add(rawTotal - candTotal)
	tel.hits.Add(hits)
	tel.misses.Add(misses)
	tel.applies.Add(int64(len(items)))
	tel.execCandidates.Add(candTotal)
	var matchedTotal int64
	for ui := range units {
		u := &units[ui]
		matchedTotal += int64(len(u.matched))
		rt, ok := tel.byRule[u.rule]
		if !ok {
			continue
		}
		rt.fired.Add(int64(len(u.matched)))
		switch u.rule.Kind {
		case Whitelist, Gate, AttrExists:
			t := u.rule.TargetType
			eff := int64(0)
			for _, i := range u.matched {
				v := out[i]
				if len(v.Vetoed[t]) == 0 && (v.Allowed == nil || v.Allowed[t]) {
					eff++
				}
			}
			rt.effective.Add(eff)
		}
	}
	tel.matched.Add(matchedTotal)
}

// sortedUnique sorts s ascending and removes duplicates in place. The
// already-sorted unique case (single-key rules produce it naturally) is
// detected in one scan and returned untouched.
func sortedUnique(s []int32) []int32 {
	sorted := true
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			sorted = false
			break
		}
	}
	if sorted {
		return s
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[n] = s[i]
			n++
		}
	}
	return s[:n]
}
