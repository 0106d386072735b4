package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/randx"
)

// randomBatchRules builds a mixed-kind rule population over a small shared
// vocabulary, deliberately including the index's edge cases: pure-wildcard
// patterns (no witness token → always-scan list), attribute rules with mixed
// attr-name casing, type restricts, and blacklists that veto what the
// whitelists assert. IDs are assigned manually so verdict fingerprints (which
// key evidence by rule ID) can distinguish rules without a Rulebase.
func randomBatchRules(t *testing.T, r *randx.Rand) []*Rule {
	t.Helper()
	vocab := []string{
		"ring", "rings?", "diamond", "toy", "oil", "oils?", "engine",
		"motor", "sander", "wheel", "jeans?", "denim", "truck", "gold",
	}
	types := []string{"rings", "oils", "tools", "jeans", "toys"}
	attrs := []string{"Brand", "brand", "Material", "Count"}

	n := 5 + r.Intn(20)
	rules := make([]*Rule, 0, n)
	for i := 0; i < n; i++ {
		src := vocab[r.Intn(len(vocab))]
		target := types[r.Intn(len(types))]
		var (
			rule *Rule
			err  error
		)
		switch r.Intn(8) {
		case 0, 1:
			rule, err = NewWhitelist(src, target)
		case 2:
			rule, err = NewWhitelist(src+".*"+vocab[r.Intn(len(vocab))], target)
		case 3:
			rule, err = NewBlacklist(src, target)
		case 4:
			rule, err = NewAttrExists(attrs[r.Intn(len(attrs))], target)
		case 5:
			rule, err = NewAttrValue(attrs[r.Intn(len(attrs))], "acme",
				[]string{target, types[r.Intn(len(types))]})
		case 6:
			rule, err = NewTypeRestrict(src, []string{target, types[r.Intn(len(types))]})
		default:
			// Pure wildcard: no witness set, so the rule lands on the
			// index's unconditional always-scan list.
			rule, err = NewWhitelist(`\w+`, target)
		}
		if err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		rule.ID = fmt.Sprintf("R%03d", i)
		rules = append(rules, rule)
	}
	return rules
}

// randomBatchItems draws a batch with the item edge cases the matcher must
// handle: empty titles, titles of repeated tokens, attribute-only items, and
// nil-attr zero values.
func randomBatchItems(r *randx.Rand, size int) []*catalog.Item {
	titles := []string{
		"gold diamond ring", "toy ring", "engine oil for trucks",
		"denim jeans", "sander wheel wheel wheel", "", "motor oil",
		"unrelated words entirely", "gold gold gold",
	}
	items := make([]*catalog.Item, size)
	for i := range items {
		attrs := map[string]string{}
		if r.Intn(3) > 0 {
			attrs["Title"] = titles[r.Intn(len(titles))]
		}
		switch r.Intn(4) {
		case 0:
			attrs["Brand"] = "acme"
		case 1:
			attrs["brand"] = "other"
		case 2:
			attrs["Material"] = "acme"
		}
		items[i] = &catalog.Item{ID: fmt.Sprintf("i%d", i), Attrs: attrs}
	}
	return items
}

// TestBatchMatcherEquivalenceProperty is the kernel's correctness property:
// ApplyBatch ≡ Apply ≡ SequentialExecutor. For random rulebases × random
// batches, all three paths must produce byte-identical verdicts and
// explanations — same evidence in the same order — positionally aligned,
// including empty batches, sub-batches sharing item pointers, and both serial
// and parallel worker counts.
func TestBatchMatcherEquivalenceProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := randx.New(seed)
		rules := randomBatchRules(t, r)
		items := randomBatchItems(r, r.Intn(60))

		seq := NewSequentialExecutor(rules)
		idx := NewIndexedExecutor(rules)
		same := func(a, b *Verdict) bool {
			return verdictBytes(t, a) == verdictBytes(t, b) && a.Explain() == b.Explain()
		}

		want := ExecuteBatchItemwise(seq, items, 1)
		itemwise := ExecuteBatchItemwise(idx, items, 3)
		for i := range items {
			if !same(want[i], itemwise[i]) {
				t.Logf("seed %d: per-item Apply diverges from sequential on item %d:\nseq: %s\nidx: %s",
					seed, i, want[i].Explain(), itemwise[i].Explain())
				return false
			}
		}
		for _, workers := range []int{1, 3} {
			got := idx.ApplyBatch(items, workers)
			if len(got) != len(items) {
				t.Logf("seed %d: %d verdicts for %d items", seed, len(got), len(items))
				return false
			}
			for i := range items {
				if !same(want[i], got[i]) {
					t.Logf("seed %d workers %d: batch diverges from sequential on item %d:\nseq: %s\nbatch: %s",
						seed, workers, i, want[i].Explain(), got[i].Explain())
					return false
				}
			}
		}

		// Items shared by pointer across overlapping sub-batches: ApplyBatch
		// keeps only batch-local state, so re-matching any sub-slice must
		// reproduce the full-batch verdicts at the shifted positions.
		if len(items) > 4 {
			lo, hi := len(items)/4, 3*len(items)/4
			sub := idx.ApplyBatch(items[lo:hi], 2)
			for i := range sub {
				if !same(want[lo+i], sub[i]) {
					t.Logf("seed %d: sub-batch diverges at item %d", seed, lo+i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatcherEmptyBatch: zero items produce zero verdicts on every path.
func TestBatchMatcherEmptyBatch(t *testing.T) {
	rules := randomBatchRules(t, randx.New(1))
	idx := NewIndexedExecutor(rules)
	for _, workers := range []int{1, 4} {
		if got := idx.ApplyBatch(nil, workers); len(got) != 0 {
			t.Fatalf("empty batch produced %d verdicts", len(got))
		}
	}
}

// TestBatchMatcherConcurrentBatches: one executor is safe for concurrent
// ApplyBatch calls over overlapping item sets (the serving layer shares a
// snapshot's executor across in-flight batches).
func TestBatchMatcherConcurrentBatches(t *testing.T) {
	r := randx.New(7)
	rules := randomBatchRules(t, r)
	items := randomBatchItems(r, 50)
	idx := NewIndexedExecutor(rules)
	want := ExecuteBatchItemwise(NewSequentialExecutor(rules), items, 1)

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			lo := g % 3
			sub := items[lo:]
			got := idx.ApplyBatch(sub, 3)
			for i := range sub {
				if !VerdictsEqual(want[lo+i], got[i]) {
					done <- fmt.Errorf("goroutine %d: verdict %d diverges", g, i)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInstrumentedBatchTelemetry checks the batch_* counter families and
// that the batch path feeds the same exec-level and per-rule series Apply
// does — one telemetry view across both paths.
func TestInstrumentedBatchTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	w1, err := NewWhitelist("gold", "rings")
	if err != nil {
		t.Fatal(err)
	}
	w1.ID = "W1"
	b1, err := NewBlacklist("toy", "rings")
	if err != nil {
		t.Fatal(err)
	}
	b1.ID = "B1"
	exec := NewInstrumentedExecutor([]*Rule{w1, b1}, reg, "exec", "rules")

	items := []*catalog.Item{
		{ID: "a", Attrs: map[string]string{"Title": "gold ring"}},
		{ID: "b", Attrs: map[string]string{"Title": "toy gold ring"}},
		{ID: "c", Attrs: map[string]string{"Title": "plain band"}},
		{ID: "d", Attrs: map[string]string{"Title": "gold gold band"}},
	}
	got := exec.ApplyBatch(items, 2)
	if len(got[0].FinalTypes()) != 1 || got[0].FinalTypes()[0] != "rings" {
		t.Fatalf("item a: %v", got[0].FinalTypes())
	}
	if len(got[1].FinalTypes()) != 0 {
		t.Fatalf("item b should be vetoed, got %v", got[1].FinalTypes())
	}

	if v := reg.Counter(MetricBatchBatches, "exec", "rules").Value(); v != 1 {
		t.Fatalf("batches = %d", v)
	}
	if v := reg.Counter(MetricBatchItems, "exec", "rules").Value(); v != 4 {
		t.Fatalf("batch items = %d", v)
	}
	// Units: W1 has candidates (a,b,d), B1 has (b) → 2 units.
	if v := reg.Counter(MetricBatchUnits, "exec", "rules").Value(); v != 2 {
		t.Fatalf("units = %d", v)
	}
	// 5 distinct tokens across the titles (gold, ring, toy, plain, band) →
	// 5 intern misses; the 5 repeat occurrences are hits.
	if v := reg.Counter(MetricBatchInternMisses, "exec", "rules").Value(); v != 5 {
		t.Fatalf("intern misses = %d", v)
	}
	if v := reg.Counter(MetricBatchInternHits, "exec", "rules").Value(); v != 5 {
		t.Fatalf("intern hits = %d", v)
	}
	// Candidate dedup: item d contributes "gold" twice but intra-item dedup
	// drops the repeat before the join, so nothing is pruned here...
	if v := reg.Counter(MetricBatchCandidates, "exec", "rules").Value(); v != 4 {
		t.Fatalf("candidates = %d", v)
	}
	// ...and the shared exec-level series accumulate from the batch path.
	if v := reg.Counter(MetricExecApplies, "exec", "rules").Value(); v != 4 {
		t.Fatalf("applies = %d", v)
	}
	if v := reg.Counter(MetricExecMatched, "exec", "rules").Value(); v != 4 {
		t.Fatalf("matched = %d", v)
	}
	if v := reg.Counter(MetricRuleFired, "rule", "W1").Value(); v != 3 {
		t.Fatalf("W1 fired = %d", v)
	}
	// W1's assertion on item b is vetoed by B1 → effective on a and d only.
	if v := reg.Counter(MetricRuleEffective, "rule", "W1").Value(); v != 2 {
		t.Fatalf("W1 effective = %d", v)
	}

	// Health() must see batch-path telemetry (applies > 0 gates the report).
	health := exec.Health(0)
	if len(health) != 2 {
		t.Fatalf("health records = %d", len(health))
	}
	for _, h := range health {
		if h.Fired == 0 {
			t.Fatalf("rule %s shows no firings despite batch telemetry", h.RuleID)
		}
	}
}
