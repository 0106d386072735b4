package learn

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/learn/learnref"
)

// modelPair is the posting-based ensemble beside the reference one, both
// NB, kNN(5), perceptron(3) in that order.
type modelPair struct {
	got  *Ensemble
	want *learnref.Ensemble
}

// lastPrediction remembers a reference member's answer for the item it was
// last asked about, so the reference ensemble, asked next, reuses the answer
// the member comparison just paid for instead of predicting twice.
type lastPrediction struct {
	learnref.Classifier
	item *catalog.Item
	ps   []learnref.Prediction
}

func (l *lastPrediction) Train(items []*catalog.Item) {
	l.item, l.ps = nil, nil
	l.Classifier.Train(items)
}

func (l *lastPrediction) Predict(it *catalog.Item) []learnref.Prediction {
	if it != l.item {
		l.item, l.ps = it, l.Classifier.Predict(it)
	}
	return l.ps
}

func newModelPair(t testing.TB) modelPair {
	t.Helper()
	got, err := NewEnsemble(classifiers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := learnref.NewEnsemble([]learnref.Classifier{
		&lastPrediction{Classifier: learnref.NewNaiveBayes()},
		&lastPrediction{Classifier: learnref.NewKNN(5)},
		&lastPrediction{Classifier: learnref.NewPerceptron(3)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return modelPair{got, want}
}

func (m modelPair) train(items []*catalog.Item) {
	m.got.Train(items)
	m.want.Train(items)
}

// diff returns "" when the item's interned feature IDs are the vocabulary
// lookups of Features(it), element by element, and every member and the
// ensemble predict it bit for bit as the reference does; otherwise it
// describes the first mismatch.
func (m modelPair) diff(it *catalog.Item) string {
	if voc := m.got.Model().voc; voc != nil {
		if d := diffInterned(voc, it); d != "" {
			return "intern: " + d
		}
	}
	gotMembers, wantMembers := m.got.Members(), m.want.Members()
	for i := range gotMembers {
		if d := diffPredictions(gotMembers[i].Predict(it), wantMembers[i].Predict(it)); d != "" {
			return gotMembers[i].Name() + ": " + d
		}
	}
	if d := diffPredictions(m.got.Predict(it), m.want.Predict(it)); d != "" {
		return "ensemble: " + d
	}
	return ""
}

// diffInterned compares the IDs intern assigns it with the vocabulary lookup
// of each Features(it) string, -1 for a string outside the vocabulary.
func diffInterned(voc *vocabulary, it *catalog.Item) string {
	s := getScratch()
	defer predictPool.Put(s)
	s.intern(voc, it)
	feats := Features(it)
	if len(s.ids) != len(feats) {
		return fmt.Sprintf("%d IDs for %d features %q", len(s.ids), len(feats), feats)
	}
	for j, f := range feats {
		want, ok := voc.ids[f]
		if !ok {
			want = -1
		}
		if s.ids[j] != want {
			return fmt.Sprintf("feature %d (%q): got ID %d, want %d", j, f, s.ids[j], want)
		}
	}
	return ""
}

func diffPredictions(got []Prediction, want []learnref.Prediction) string {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i].Type != want[i].Type || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("rank %d: got %s %x, want %s %x", i,
				got[i].Type, math.Float64bits(got[i].Score), want[i].Type, math.Float64bits(want[i].Score))
		}
	}
	return ""
}

func (m modelPair) check(t *testing.T, queries []*catalog.Item) {
	t.Helper()
	for _, q := range queries {
		if d := m.diff(q); d != "" {
			t.Fatalf("item %s (title %q, attrs %v): %s", q.ID, q.Title(), q.Attrs, d)
		}
	}
}

// hostileQueries derives items the catalog never generates from base: repeated
// title tokens, unseen tokens, no Brand Name, empty titles, and titles and
// attributes that share no feature with any training item.
func hostileQueries(base []*catalog.Item) []*catalog.Item {
	var qs []*catalog.Item
	add := func(id string, attrs map[string]string) {
		qs = append(qs, &catalog.Item{ID: id, Attrs: attrs})
	}
	for i, it := range base {
		title := it.Title()
		words := strings.Fields(title)
		switch i % 6 {
		case 0: // repeated title tokens
			if len(words) > 0 {
				title = strings.Join([]string{title, words[0], words[len(words)-1], words[0]}, " ")
			}
			add(fmt.Sprintf("rep-%d", i), withTitle(it.Attrs, title))
		case 1: // unseen tokens beside seen ones
			add(fmt.Sprintf("unseen-%d", i), withTitle(it.Attrs, "qqzx"+fmt.Sprint(i)+" "+title+" vvkj"))
		case 2: // no Brand Name
			attrs := withTitle(it.Attrs, title)
			delete(attrs, "Brand Name")
			add(fmt.Sprintf("nobrand-%d", i), attrs)
		case 3: // empty title, attributes kept
			add(fmt.Sprintf("notitle-%d", i), withTitle(it.Attrs, ""))
		case 4: // no shared feature at all
			add(fmt.Sprintf("alien-%d", i), map[string]string{"Title": fmt.Sprintf("zzqx%d wwvk%d", i, i), "Zzattr": "x"})
		case 5: // title only, nothing else
			add(fmt.Sprintf("bare-%d", i), map[string]string{"Title": title})
		}
	}
	add("empty", map[string]string{})
	add("empty-title", map[string]string{"Title": ""})
	return qs
}

func withTitle(attrs map[string]string, title string) map[string]string {
	out := make(map[string]string, len(attrs))
	for k, v := range attrs {
		out[k] = v
	}
	out["Title"] = title
	return out
}

// TestDenseKernelMatchesReference checks every prediction of every member
// and of the ensemble against the map-based reference models, bit for bit,
// on generated and hostile queries, before and after retraining, on classes
// tied across the top-5 cut, and after a member is retrained on its own.
func TestDenseKernelMatchesReference(t *testing.T) {
	t.Run("ties", func(t *testing.T) { t.Parallel(); checkTies(t) })
	t.Run("retrained-member", func(t *testing.T) { t.Parallel(); checkRetrainedMember(t) })
	for _, seed := range []uint64{3, 41} {
		seed := seed
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			c := catalog.New(catalog.Config{Seed: seed, NumTypes: 250})
			train := c.GenerateBatch(catalog.BatchSpec{Size: 2000, Epoch: 0})
			fresh := c.GenerateBatch(catalog.BatchSpec{Size: 1000, Epoch: 0})
			drifted := c.GenerateBatch(catalog.BatchSpec{Size: 800, Epoch: 3})
			queries := append(append(append([]*catalog.Item{}, fresh...), drifted...), train[:200]...)
			queries = append(queries, hostileQueries(append(fresh[:600:600], drifted[:600]...))...)
			if len(queries) < 3000 {
				t.Fatalf("only %d queries", len(queries))
			}

			m := newModelPair(t)
			m.train(train)
			m.check(t, queries)

			// Train replaces the model: a smaller, drifted training set
			// leaves nothing of the first one behind.
			m.train(c.GenerateBatch(catalog.BatchSpec{Size: 1200, Epoch: 2}))
			m.check(t, queries[:1000])
			m.check(t, queries[len(queries)-600:])
		})
	}
}

// checkTies: items identical but for their type tie their classes exactly,
// so the top-5 cut of Naive Bayes and the perceptron, kNN's neighbours and
// the ensemble's ranks all fall inside ties broken by type order.
func checkTies(t *testing.T) {
	c := catalog.New(catalog.Config{Seed: 5, NumTypes: 40})
	train := c.GenerateBatch(catalog.BatchSpec{Size: 600, Epoch: 0})
	twins := []map[string]string{
		{"Title": "zqtie velvo marquand osterby plinth", "Brand Name": "Tiebrand"},
		{"Title": "quorrel dunstable quorrel dunstable", "Colour": "ochre"},
		{"Title": train[0].Title(), "Brand Name": "Twinco"},
	}
	var queries []*catalog.Item
	for i, attrs := range twins {
		// Eight types hold exactly the same single item; the types' names
		// interleave with the catalog's so ties span non-adjacent classes.
		for j := 0; j < 8; j++ {
			ty := fmt.Sprintf("%c-tie-%d", 'a'+rune(3*j), i)
			train = append(train, &catalog.Item{ID: fmt.Sprintf("twin-%d-%d", i, j), TrueType: ty, Attrs: attrs})
		}
		queries = append(queries,
			&catalog.Item{ID: fmt.Sprintf("q-%d", i), Attrs: attrs},
			&catalog.Item{ID: fmt.Sprintf("q-%d-extra", i), Attrs: withTitle(attrs, attrs["Title"]+" extra words")})
	}
	queries = append(queries, c.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 1})...)

	m := newModelPair(t)
	m.train(train)
	nb := m.got.Members()[0].Predict(queries[0])
	if len(nb) != 5 || nb[0].Score != nb[4].Score {
		t.Fatalf("fixture does not tie six or more classes at the top: %v", nb)
	}
	m.check(t, queries)
}

// checkRetrainedMember: a member retrained through Members()[i].Train no
// longer reads the ensemble's vocabulary. The ensemble must notice and
// predict through each member's own Predict, still bit for bit as the
// reference; retraining the ensemble restores the shared path.
func checkRetrainedMember(t *testing.T) {
	c := catalog.New(catalog.Config{Seed: 9, NumTypes: 60})
	train := c.GenerateBatch(catalog.BatchSpec{Size: 900, Epoch: 0})
	other := c.GenerateBatch(catalog.BatchSpec{Size: 500, Epoch: 2})
	queries := c.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 1})
	queries = append(queries, hostileQueries(queries[:120])...)

	m := newModelPair(t)
	m.train(train)
	if !m.got.Model().sharesVocab() {
		t.Fatal("a freshly trained ensemble does not share its vocabulary")
	}
	for i := range m.got.Members() {
		m.got.Members()[i].Train(other)
		m.want.Members()[i].Train(other)
		if m.got.Model().sharesVocab() {
			t.Fatalf("member %d retrained on its own, yet the ensemble still uses the shared path", i)
		}
		m.check(t, queries)
	}
	m.train(other)
	if !m.got.Model().sharesVocab() {
		t.Fatal("retraining the ensemble did not restore the shared vocabulary")
	}
	m.check(t, queries)
}

// TestUntrainedEnsembleDoesNoWork: the rules-only pipeline asks an untrained
// ensemble about every item, so the answer (nil) must come without feature
// extraction or interning, and without allocating. Every call gets an item
// whose title was never tokenized, so interning would allocate too.
func TestUntrainedEnsembleDoesNoWork(t *testing.T) {
	attrs := map[string]string{"Title": "Apex Quad Core Laptop 15.6 inch", "Brand Name": "Apex"}
	const runs = 200
	fresh := make([]*catalog.Item, 2*(runs+1)) // AllocsPerRun adds one warm-up call
	for i := range fresh {
		fresh[i] = &catalog.Item{ID: fmt.Sprint(i), Attrs: attrs}
	}
	never, err := NewEnsemble(classifiers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewEnsemble(classifiers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	empty.Train(nil)
	next := 0
	for _, tc := range []struct {
		name string
		ens  *Ensemble
	}{{"never trained", never}, {"trained on nothing", empty}} {
		n := testing.AllocsPerRun(runs, func() {
			if ps := tc.ens.Predict(fresh[next]); ps != nil {
				t.Fatalf("%s: Predict = %v, want nil", tc.name, ps)
			}
			next++
		})
		if n != 0 {
			t.Errorf("%s: Predict allocates %.2f times per call, want 0", tc.name, n)
		}
	}
}

// TestNewEnsembleCopiesSlices: edits to the slices a caller passed to
// NewEnsemble must not reach the ensemble.
func TestNewEnsembleCopiesSlices(t *testing.T) {
	train, test := trainTest(t, 800, 80)
	members := classifiers()
	weights := []float64{1, 1, 1}
	ens, err := NewEnsemble(members, weights)
	if err != nil {
		t.Fatal(err)
	}
	ens.Train(train)
	want := make([][]Prediction, len(test))
	for i, it := range test {
		want[i] = ens.Predict(it)
	}
	weights[0], weights[1], weights[2] = 7, 0.25, 0
	members[1] = NewPerceptron(1)
	for i, it := range test {
		if d := diffPredictions(ens.Predict(it), toRef(want[i])); d != "" {
			t.Fatalf("item %d after the caller edited its slices: %s", i, d)
		}
	}
	if got := ens.Members()[1].Name(); got != "knn" {
		t.Fatalf("Members()[1] is %s after the caller replaced its own slice entry", got)
	}
}

// TestKNNNonPositiveK: K is exported, so a caller may set it below 1 after
// NewKNN; Predict reads it as 5, as NewKNN does.
func TestKNNNonPositiveK(t *testing.T) {
	train, test := trainTest(t, 600, 50)
	k := NewKNN(5)
	k.Train(train)
	want := make([][]Prediction, len(test))
	for i, it := range test {
		want[i] = k.Predict(it)
	}
	for _, kk := range []int{-1, 0, -7} {
		k.K = kk
		for i, it := range test {
			if d := diffPredictions(k.Predict(it), toRef(want[i])); d != "" {
				t.Fatalf("K=%d: %s", kk, d)
			}
		}
	}
}

func toRef(ps []Prediction) []learnref.Prediction {
	if ps == nil {
		return nil
	}
	out := make([]learnref.Prediction, len(ps))
	for i, p := range ps {
		out[i] = learnref.Prediction{Type: p.Type, Score: p.Score}
	}
	return out
}

// TestPredictConcurrent: ProcessBatch workers share one trained ensemble, so
// Predict's pooled scratch must give every goroutine the serial answer.
func TestPredictConcurrent(t *testing.T) {
	train, test := trainTest(t, 1000, 150)
	ens, err := NewEnsemble(classifiers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ens.Train(train)
	predictors := append(append([]Classifier{}, ens.Members()...), ens)
	serial := make([][][]Prediction, len(predictors))
	for p, c := range predictors {
		for _, it := range test {
			serial[p] = append(serial[p], c.Predict(it))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range test {
				i := (n + g*17) % len(test) // goroutines walk the items out of step
				for p, c := range predictors {
					if d := diffPredictions(c.Predict(test[i]), toRef(serial[p][i])); d != "" {
						t.Errorf("goroutine %d, %s, item %d: %s", g, c.Name(), i, d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

var (
	fuzzOnce sync.Once
	fuzzPair modelPair
)

// FuzzDenseKernelMatchesReference feeds arbitrary titles and attribute maps
// (one "name=value" per line) to a small trained fixture, checks the item's
// interned feature IDs against the vocabulary lookup of Features, and
// compares every prediction with the reference bit for bit.
func FuzzDenseKernelMatchesReference(f *testing.F) {
	f.Add("Apex Quad Core Laptop 15.6 inch", "Brand Name=Apex\nisbn=9781234567890")
	f.Add("motor oil motor oil motor", "Brand Name=Castrol")
	f.Add("", "Color=red")
	f.Add("zzqx wwvk", "")
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
		if d := fuzzPair.diff(it); d != "" {
			t.Fatalf("title %q attrs %v: %s", title, m, d)
		}
	})
}
