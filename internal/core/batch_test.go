package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
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

		// Items shared by pointer across overlapping sub-batches: re-matching
		// any sub-slice must reproduce the full-batch verdicts at the shifted
		// positions.
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
