package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/randx"
)

// FuzzVerdictExplain throws random rule populations and arbitrary titles at
// the executor and checks the explanation contract (§3.2: "liability
// concerns may require certain predictions to be explainable"):
//
//   - Explain never panics and always justifies exactly the final types;
//   - an empty verdict says so explicitly;
//   - FinalTypes is sorted (stable output for audit diffs);
//   - the indexed executor, per item and per batch, agrees with the
//     sequential baseline byte for byte (same types, same evidence, same
//     evidence order, same explanation) on the fuzzed title.
func FuzzVerdictExplain(f *testing.F) {
	f.Add(uint64(1), "acme diamond rings")
	f.Add(uint64(7), "engine oil for pick up trucks")
	f.Add(uint64(42), "toy ring")
	f.Add(uint64(99), "")
	f.Add(uint64(3), "sander wheel wheel wheel")
	f.Fuzz(func(t *testing.T, seed uint64, title string) {
		r := randx.New(seed)
		vocab := []string{
			"ring", "rings?", "diamond", "toy", "oil", "oils?", "engine",
			"motor", "sander", "wheel", "jeans?", "denim", "truck",
		}
		types := []string{"rings", "oils", "tools", "jeans"}

		// A deterministic random mixed-kind rule population.
		n := 4 + r.Intn(12)
		rules := make([]*Rule, 0, n)
		for i := 0; i < n; i++ {
			src := vocab[r.Intn(len(vocab))]
			target := types[r.Intn(len(types))]
			var (
				rule *Rule
				err  error
			)
			switch r.Intn(6) {
			case 0, 1, 2:
				rule, err = NewWhitelist(src, target)
			case 3:
				rule, err = NewBlacklist(src, target)
			case 4:
				rule, err = NewAttrExists("Brand", target)
			default:
				rule, err = NewTypeRestrict(src, []string{target, types[r.Intn(len(types))]})
			}
			if err != nil {
				continue
			}
			rules = append(rules, rule)
		}

		attrs := map[string]string{}
		if r.Intn(2) == 0 {
			attrs["Brand"] = "acme"
		}
		it := item(title, attrs)

		v := NewSequentialExecutor(rules).Apply(it)
		finals := v.FinalTypes()
		if !sort.StringsAreSorted(finals) {
			t.Fatalf("FinalTypes not sorted: %v", finals)
		}

		explain := v.Explain()
		// Explanations are audit artifacts: rendering the same verdict twice
		// must produce byte-identical output (the vetoed-by sections used to
		// come out in random map order).
		if again := v.Explain(); again != explain {
			t.Fatalf("Explain not deterministic across two calls:\n%q\nvs\n%q", explain, again)
		}
		if len(finals) == 0 {
			if !strings.Contains(explain, "no type survives the rule verdict\n") {
				t.Fatalf("empty verdict not explained: %q", explain)
			}
		}
		for _, ty := range finals {
			if !strings.Contains(explain, "type "+ty+" because:\n") {
				t.Fatalf("final type %s not justified in explanation:\n%s", ty, explain)
			}
			if len(v.Evidence(ty)) == 0 {
				t.Fatalf("final type %s has no evidence", ty)
			}
		}

		// Executor equivalence on the fuzzed input: indexing may never change
		// the verdict, only the cost of reaching it.
		idx := NewIndexedExecutor(rules)
		if iv := idx.Apply(it); verdictBytes(t, iv) != verdictBytes(t, v) || iv.Explain() != explain {
			t.Fatalf("indexed executor diverges on %q:\nseq: %s\nidx: %s",
				title, explain, iv.Explain())
		}
		// Same for the batch-inverted join on a single-item batch.
		if bv := idx.ApplyBatch([]*catalog.Item{it}, 1)[0]; verdictBytes(t, bv) != verdictBytes(t, v) || bv.Explain() != explain {
			t.Fatalf("batch join diverges on %q:\nseq: %s\nbatch: %s",
				title, explain, bv.Explain())
		}
	})
}
