package learn

import (
	"math"
	"testing"

	"repro/internal/catalog"
)

// trainTest builds a train/test split over a moderate catalog.
func trainTest(t *testing.T, nTrain, nTest int) (train, test []*catalog.Item) {
	t.Helper()
	c := catalog.New(catalog.Config{Seed: 21, NumTypes: 30})
	train = c.GenerateBatch(catalog.BatchSpec{Size: nTrain, Epoch: 0})
	test = c.GenerateBatch(catalog.BatchSpec{Size: nTest, Epoch: 0})
	return train, test
}

func TestFeaturesIncludeSignals(t *testing.T) {
	it := &catalog.Item{
		ID: "x",
		Attrs: map[string]string{
			"Title":      "Apex Quad Core Laptop 15.6 inch",
			"isbn":       "9781234567890",
			"Brand Name": "Apex",
		},
	}
	feats := Features(it)
	want := map[string]bool{"laptop": false, "attr:isbn": false, "brand:apex": false, "quad_core": false}
	for _, f := range feats {
		if _, ok := want[f]; ok {
			want[f] = true
		}
	}
	for f, seen := range want {
		if !seen {
			t.Errorf("feature %q missing from %v", f, feats)
		}
	}
	for _, f := range feats {
		if f == "attr:title" || f == "attr:description" {
			t.Errorf("Title/Description must not leak as presence features")
		}
	}
}

func classifiers() []Classifier {
	return []Classifier{NewNaiveBayes(), NewKNN(5), NewPerceptron(3)}
}

func TestEachClassifierLearns(t *testing.T) {
	train, test := trainTest(t, 3000, 600)
	for _, c := range classifiers() {
		c.Train(train)
		acc := Accuracy(c, test)
		if acc < 0.6 {
			t.Errorf("%s accuracy %.3f < 0.6", c.Name(), acc)
		}
	}
}

func TestUntrainedPredictsNil(t *testing.T) {
	_, test := trainTest(t, 1, 1)
	for _, c := range classifiers() {
		if ps := c.Predict(test[0]); ps != nil {
			t.Errorf("untrained %s should return nil, got %v", c.Name(), ps)
		}
	}
}

func TestPredictionsSortedAndNormalized(t *testing.T) {
	train, test := trainTest(t, 1500, 50)
	for _, c := range classifiers() {
		c.Train(train)
		for _, it := range test {
			ps := c.Predict(it)
			var sum float64
			for i, p := range ps {
				if p.Score < 0 || p.Score > 1.0001 {
					t.Fatalf("%s score out of range: %v", c.Name(), p.Score)
				}
				if i > 0 && ps[i-1].Score < p.Score {
					t.Fatalf("%s predictions not sorted", c.Name())
				}
				sum += p.Score
			}
			if sum > 1.0001 {
				t.Fatalf("%s scores sum to %v > 1", c.Name(), sum)
			}
		}
	}
}

func TestKNNIndexConsistency(t *testing.T) {
	train, test := trainTest(t, 800, 100)
	k := NewKNN(5)
	k.Train(train)
	// Every prediction must come from classes present in training.
	trainTypes := map[string]bool{}
	for _, it := range train {
		trainTypes[it.TrueType] = true
	}
	for _, it := range test {
		for _, p := range k.Predict(it) {
			if !trainTypes[p.Type] {
				t.Fatalf("kNN predicted unseen class %q", p.Type)
			}
		}
	}
}

func TestKNNNoSharedFeatures(t *testing.T) {
	train, _ := trainTest(t, 200, 0)
	k := NewKNN(5)
	k.Train(train)
	alien := &catalog.Item{ID: "a", Attrs: map[string]string{"Title": "zzzzqqq xxyyzz"}}
	if ps := k.Predict(alien); ps != nil {
		t.Fatalf("item sharing no features should yield nil, got %v", ps)
	}
}

func TestPerceptronImprovesWithEpochs(t *testing.T) {
	train, test := trainTest(t, 2500, 500)
	one := NewPerceptron(1)
	one.Train(train)
	five := NewPerceptron(6)
	five.Train(train)
	a1, a5 := Accuracy(one, test), Accuracy(five, test)
	if a5+0.03 < a1 {
		t.Fatalf("more epochs should not be much worse: 1→%.3f 6→%.3f", a1, a5)
	}
}

func TestEnsembleBeatsOrMatchesMedianMember(t *testing.T) {
	train, test := trainTest(t, 3000, 600)
	members := classifiers()
	ens, err := NewEnsemble(members, nil)
	if err != nil {
		t.Fatal(err)
	}
	ens.Train(train)
	accs := make([]float64, len(members))
	for i, m := range ens.Members() {
		accs[i] = Accuracy(m, test)
	}
	// median of 3
	med := accs[0] + accs[1] + accs[2] -
		max3(accs[0], accs[1], accs[2]) - min3(accs[0], accs[1], accs[2])
	ea := Accuracy(ens, test)
	if ea+0.02 < med {
		t.Fatalf("ensemble %.3f clearly below median member %.3f (members %v)", ea, med, accs)
	}
}

func max3(a, b, c float64) float64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(nil, nil); err == nil {
		t.Fatal("empty ensemble should be rejected")
	}
	if _, err := NewEnsemble(classifiers(), []float64{1}); err == nil {
		t.Fatal("weight/member mismatch should be rejected")
	}
	// Each of these breaks the confidence contract: NaN or infinite scores,
	// a top confidence above 1, or no prediction at all.
	for _, w := range [][]float64{
		{1, math.NaN(), 1},
		{1, -1, 1},
		{1, math.Inf(1), 1},
		{0, 0, 0},
		{math.MaxFloat64, math.MaxFloat64, 1},
	} {
		if _, err := NewEnsemble(classifiers(), w); err == nil {
			t.Errorf("weights %v should be rejected", w)
		}
	}
	if _, err := NewEnsemble(classifiers(), []float64{0, 2, 0.5}); err != nil {
		t.Errorf("weights with a zero beside positive ones: %v", err)
	}
}

func TestPrecisionRecallThresholdTradeoff(t *testing.T) {
	train, test := trainTest(t, 3000, 800)
	nb := NewNaiveBayes()
	nb.Train(train)
	pLow, rLow := PrecisionRecallAt(nb, test, 0.0)
	pHigh, rHigh := PrecisionRecallAt(nb, test, 0.9)
	if rHigh > rLow {
		t.Fatalf("higher threshold cannot increase recall: %v vs %v", rHigh, rLow)
	}
	if pHigh+0.02 < pLow {
		t.Fatalf("higher threshold should not clearly hurt precision: %.3f vs %.3f", pHigh, pLow)
	}
	if rLow == 0 {
		t.Fatal("zero threshold should emit predictions")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	nb := NewNaiveBayes()
	if Accuracy(nb, nil) != 0 {
		t.Fatal("accuracy over nothing should be 0")
	}
}

func TestHeadlessItemsAreHarder(t *testing.T) {
	// Sanity: classifiers lean on head nouns; the trap/headless titles the
	// lexicon injects should be where errors concentrate. We just check
	// overall error rate is nonzero (the corner cases exist).
	train, test := trainTest(t, 3000, 1000)
	nb := NewNaiveBayes()
	nb.Train(train)
	if Accuracy(nb, test) > 0.995 {
		t.Fatal("catalog should not be trivially separable — corner cases expected")
	}
}

// TestDeterministicTraining: two independently trained instances of each
// member predict the same lists, bit for bit.
func TestDeterministicTraining(t *testing.T) {
	train, test := trainTest(t, 1000, 100)
	first, second := classifiers(), classifiers()
	for i := range first {
		first[i].Train(train)
		second[i].Train(train)
		for _, it := range test {
			if d := diffPredictions(first[i].Predict(it), toRef(second[i].Predict(it))); d != "" {
				t.Fatalf("%s training is not deterministic: %s", first[i].Name(), d)
			}
		}
	}
}
