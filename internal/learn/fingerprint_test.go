package learn

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// sameContent returns a new item with it's ID and attribute content in a
// map of its own, under a different ground truth and vendor: what the
// learners may read is unchanged, and so must be the fingerprint.
func sameContent(it *catalog.Item) *catalog.Item {
	return &catalog.Item{ID: it.ID, Attrs: maps.Clone(it.Attrs), TrueType: it.TrueType + "-other", Vendor: "elsewhere"}
}

// checkFingerprintCovers fails unless a and b, which must have equal
// fingerprints, have equal Features and bit-equal ensemble predictions.
func checkFingerprintCovers(t *testing.T, ens *Ensemble, a, b *catalog.Item) {
	t.Helper()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("equal content hashes differently: %v vs %v", a.Attrs, b.Attrs)
	}
	if fa, fb := Features(a), Features(b); !slices.Equal(fa, fb) {
		t.Fatalf("equal fingerprints, different features: %q vs %q", fa, fb)
	}
	if d := diffPredictions(ens.Predict(a), toRef(ens.Predict(b))); d != "" {
		t.Fatalf("equal fingerprints, different predictions for %v: %s", a.Attrs, d)
	}
}

// TestLearnersReadOnlyWhatTheFingerprintHashes is the property the decision
// cache rests on: items with equal fingerprints present the learners equal
// features and get bit-equal ensemble predictions, while an edit to the
// attributes changes the fingerprint.
func TestLearnersReadOnlyWhatTheFingerprintHashes(t *testing.T) {
	train, test := trainTest(t, 800, 300)
	ens, err := NewEnsemble(classifiers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ens.Train(train)
	for _, it := range test {
		checkFingerprintCovers(t, ens, it, sameContent(it))
		checkFingerprintCovers(t, ens, it, it.Relabeled("anything"))

		edits := []func(map[string]string){
			func(m map[string]string) { m["Title"] += " deluxe" },
			func(m map[string]string) { m["Brand Name"] += "x" },
			func(m map[string]string) { m["isbn"] = "9781234567890" },
		}
		for i, edit := range edits {
			e := sameContent(it)
			edit(e.Attrs)
			if e.Fingerprint() == it.Fingerprint() {
				t.Fatalf("edit %d of %v keeps the fingerprint", i, it.Attrs)
			}
		}
	}
}

// FuzzFingerprintDeterminesPrediction feeds arbitrary titles and attribute
// maps (one "name=value" per line) and checks the same property on each:
// two items built from equal content have equal fingerprints, features and
// predictions, and adding an attribute changes the fingerprint.
func FuzzFingerprintDeterminesPrediction(f *testing.F) {
	f.Add("Apex Quad Core Laptop 15.6 inch", "Brand Name=Apex\nisbn=9781234567890")
	f.Add("motor oil motor oil motor", "Brand Name=Castrol")
	f.Add("", "Color=red\nTitle=shadowed")
	f.Fuzz(func(t *testing.T, title, attrs string) {
		fuzzOnce.Do(func() {
			train, _ := trainTest(t, 400, 0)
			fuzzPair = newModelPair(t)
			fuzzPair.train(train)
		})
		m := map[string]string{"Title": title}
		for _, line := range strings.Split(attrs, "\n") {
			if name, value, ok := strings.Cut(line, "="); ok {
				m[name] = value
			}
		}
		it := &catalog.Item{ID: "fuzz", Attrs: m}
		checkFingerprintCovers(t, fuzzPair.got, it, sameContent(it))
		e := sameContent(it)
		e.Attrs["\x00fuzz-edit"] = "1"
		if e.Fingerprint() == it.Fingerprint() {
			t.Fatalf("adding an attribute to %v keeps the fingerprint", m)
		}
	})
}
