package catalog

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/tokenize"
)

// TestTitleTokensConcurrent is the -race regression test for the lazy
// TitleTokens cache: the same items are tokenized from many goroutines at
// once — the exact access pattern of NewDataIndex running concurrently with
// batch classification, half of the callers arriving through TitleSignature
// (the rule index's prefilter reads it first). Before the sync.Once fix this
// was a data race on it.titleTokens.
func TestTitleTokensConcurrent(t *testing.T) {
	c := New(Config{Seed: 31, NumTypes: 30})
	items := c.GenerateBatch(BatchSpec{Size: 64, Epoch: 0})
	// Mix in an empty-title item: nil used to double as the "not computed"
	// sentinel, so every goroutine re-tokenized it.
	items = append(items, &Item{ID: "empty", Attrs: map[string]string{}})

	const goroutines = 8
	got := make([][][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			toks := make([][]string, len(items))
			for i, it := range items {
				if g%2 == 1 {
					if sig := it.TitleSignature(); sig != tokenize.Signature(it.TitleTokens()) {
						t.Errorf("item %d: signature %x does not sign its tokens", i, sig)
					}
				}
				toks[i] = it.TitleTokens()
			}
			got[g] = toks
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range items {
			if !reflect.DeepEqual(got[0][i], got[g][i]) {
				t.Fatalf("goroutine %d saw different tokens for item %d: %v vs %v",
					g, i, got[g][i], got[0][i])
			}
		}
	}
}

// TestTitleTokensEmptyTitleComputedOnce: an empty title must be tokenized
// exactly once. The old code used nil as the "not computed" sentinel, so an
// empty title (whose token slice is nil) re-tokenized on every call — this
// test mutates the title after the first call and would observe the
// recompute.
func TestTitleTokensEmptyTitleComputedOnce(t *testing.T) {
	it := &Item{ID: "e", Attrs: map[string]string{}}
	if toks := it.TitleTokens(); len(toks) != 0 {
		t.Fatalf("empty title tokenized to %v", toks)
	}
	// If TitleTokens re-tokenized, it would now pick up the new title.
	it.Attrs["Title"] = "gold ring"
	if toks := it.TitleTokens(); len(toks) != 0 {
		t.Fatalf("empty title was re-tokenized on the second call: %v", toks)
	}
}

// TestTitleTokensNilAttrs: a zero-value item (no attribute map at all) must
// tokenize to nothing without panicking, once.
func TestTitleTokensNilAttrs(t *testing.T) {
	it := &Item{ID: "z"}
	if toks := it.TitleTokens(); len(toks) != 0 {
		t.Fatalf("nil-attrs item tokenized to %v", toks)
	}
}

// TestTitleSignatureFollowsTokens: the signature is cached with the tokens
// (an empty title signs to zero, once), and a Relabeled clone whose Attrs are
// swapped signs the new title, not the original's.
func TestTitleSignatureFollowsTokens(t *testing.T) {
	empty := &Item{ID: "e", Attrs: map[string]string{}}
	if sig := empty.TitleSignature(); sig != 0 {
		t.Fatalf("empty title signed to %x", sig)
	}
	empty.Attrs["Title"] = "gold ring"
	if sig := empty.TitleSignature(); sig != 0 {
		t.Fatalf("signature recomputed after the first call: %x", sig)
	}

	orig := &Item{ID: "o", Attrs: map[string]string{"Title": "gold ring"}}
	want := tokenize.TokenBit("gold") | tokenize.TokenBit("ring")
	if sig := orig.TitleSignature(); sig != want {
		t.Fatalf("signature %x, want %x", sig, want)
	}
	clone := orig.Relabeled("rings")
	clone.Attrs = map[string]string{"Title": "motor oil"}
	if sig := clone.TitleSignature(); sig != tokenize.TokenBit("motor")|tokenize.TokenBit("oil") {
		t.Fatalf("clone carried the original's signature: %x", sig)
	}
	if sig := orig.TitleSignature(); sig != want {
		t.Fatalf("original's signature changed: %x", sig)
	}
}
