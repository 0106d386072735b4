package core

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
)

// This file implements batch-inverted matching, the §5.3 set-oriented
// evaluation step: instead of probing the rule index once per item
// (IndexedExecutor.Apply → candidateSlots), a whole batch is inverted into a
// token→items posting structure in one pass and joined against the rule
// index's token→slots postings (through the same signature prefilter
// candidateSlots applies), yielding (rule, candidate-items) work units.
// Units are then evaluated rule-major across workers and merged into
// positionally-aligned verdicts. The join amortizes three per-item costs:
// the candidate sort, the candidate output slice, and one posting-map
// probe per token occurrence (interning reduces repeats to a single cheap
// map hit). Verdicts are byte-identical to the item-at-a-time paths — the
// property TestBatchMatcherEquivalenceProperty verifies.

// Metric families recorded by an instrumented executor's ApplyBatch,
// alongside the core_exec_* / core_rule_* series both paths feed.
const (
	MetricBatchBatches      = "core_batch_batches_total"
	MetricBatchItems        = "core_batch_items_total"
	MetricBatchUnits        = "core_batch_units_total"
	MetricBatchCandidates   = "core_batch_candidates_total"
	MetricBatchPruned       = "core_batch_candidates_pruned_total"
	MetricBatchInternHits   = "core_batch_intern_hits_total"
	MetricBatchInternMisses = "core_batch_intern_misses_total"
)

// posting is one interned batch token (or attribute name): the rules it
// activates and the items that contain it.
type posting struct {
	slots []int32 // the rule index's posting list, shared
	items []int32
	last  int32 // last item appended — dedups repeats within one item
	title bool  // title-token posting: its rules carry patterns to prefilter by
}

// batchUnit is one (rule, candidate-items) unit of work from the join.
type batchUnit struct {
	slot    int32
	rule    *Rule
	cand    []int32 // sorted unique candidate item indices
	matched []int32 // prefix of cand after evaluation (in-place compaction)
}

// ApplyBatch evaluates the batch and returns verdicts positionally aligned
// with items, byte-identical to Apply on each item. workers <= 1 evaluates and
// merges inline. Safe for concurrent calls: each builds only batch-local
// state. Per-Apply latency sampling does not apply here; batch cost is visible
// to callers' own span/histogram instrumentation instead.
func (e *IndexedExecutor) ApplyBatch(items []*catalog.Item, workers int) []*Verdict {
	out := make([]*Verdict, len(items))
	if len(items) == 0 {
		if e.tel != nil {
			e.tel.batches.Inc()
		}
		return out
	}

	// Phase 1 — invert the batch. One pass over the items interns every
	// distinct token and attribute name: the first occurrence probes the rule
	// index once and either opens a posting or records a dead id (-1, the
	// token activates no rule); every repeat costs a single intern-map hit.
	idx := e.idx
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
					ss := idx.byToken[tok]
					if ss == nil {
						tokID[tok] = -1
						continue
					}
					id = int32(len(posts))
					tokID[tok] = id
					posts = append(posts, posting{slots: ss, last: -1, title: true})
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
					ss := idx.byAttr[strings.ToLower(attr)]
					if ss == nil {
						attrID[attr] = -1
						continue
					}
					id = int32(len(posts))
					attrID[attr] = id
					posts = append(posts, posting{slots: ss, last: -1})
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
	// prefilter candidateSlots applies, here before a candidate is stored,
	// sorted or counted. Units are emitted in slot (= rule input) order, so
	// evaluation and merge are deterministic. Always-scan rules (pure
	// wildcards, no witness token) get the full batch, matching
	// candidateSlots' unconditional scan list.
	cand := make([][]int32, len(idx.rules))
	for pi := range posts {
		p := &posts[pi]
		for _, s := range p.slots {
			if !p.title {
				cand[s] = append(cand[s], p.items...)
				continue
			}
			pat := idx.keyed[s].compiled
			for _, i := range p.items {
				if pat.MayMatch(sigs[i]) {
					cand[s] = append(cand[s], i)
				}
			}
		}
	}
	for _, s := range idx.always {
		all := make([]int32, len(items))
		for i := range all {
			all[i] = int32(i)
		}
		cand[s] = all
	}
	units := make([]batchUnit, 0, len(idx.rules))
	var rawTotal, candTotal int64
	for s, r := range idx.rules {
		c := cand[s]
		if len(c) == 0 || r == nil { // nil: a dead slot (RuleIndex.reslot)
			continue
		}
		rawTotal += int64(len(c))
		c = sortedUnique(c)
		candTotal += int64(len(c))
		units = append(units, batchUnit{slot: int32(s), rule: r, cand: c})
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
	// SequentialExecutor and Apply use. Each unit's matched list is sorted, so
	// the shard's slice of it is found by binary search.
	mw := workers
	if mw > len(items) {
		mw = len(items)
	}
	if mw <= 1 {
		mergeUnits(out, units, 0, len(items))
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
				mergeUnits(out, units, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	if e.tel != nil {
		e.recordBatch(units, out, rawTotal, candTotal, hits, misses)
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
func mergeUnits(out []*Verdict, units []batchUnit, lo, hi int) {
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

// recordBatch settles the batch's counters after the verdicts are final:
// batch_* families, the exec-level applies/candidates/matched, and per-rule
// fired/effective (same semantics as recordApply's post-veto pass).
func (e *IndexedExecutor) recordBatch(units []batchUnit, out []*Verdict, rawTotal, candTotal, hits, misses int64) {
	tel := e.tel
	tel.batches.Inc()
	tel.batchItems.Add(int64(len(out)))
	tel.units.Add(int64(len(units)))
	tel.batchCandidates.Add(candTotal)
	tel.pruned.Add(rawTotal - candTotal)
	tel.internHits.Add(hits)
	tel.internMisses.Add(misses)
	tel.applies.Add(int64(len(out)))
	tel.candidates.Add(candTotal)
	var matchedTotal int64
	for ui := range units {
		u := &units[ui]
		matchedTotal += int64(len(u.matched))
		rt := e.ruleTel[u.slot]
		if rt.fired == nil {
			continue
		}
		rt.fired.Add(int64(len(u.matched)))
		if u.rule.asserting() {
			eff := int64(0)
			for _, i := range u.matched {
				if out[i].survives(u.rule.TargetType) {
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
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			slices.Sort(s)
			return slices.Compact(s)
		}
	}
	return s
}
