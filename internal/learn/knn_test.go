package learn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/learn/learnref"
)

// knnSearch runs one neighbour search for already-interned feature IDs and
// returns copies of the neighbours the pruned search settles on and of the
// full scan's, the path the pruned search took and its candidate count.
func knnSearch(t testing.TB, k *KNN, ids []int32) (pruned, full []scored, path knnPath, cands int) {
	t.Helper()
	s := k.getScratch()
	defer k.scratch.Put(s)
	feats := slices.Clone(ids)
	slices.Sort(feats)
	top, path, cands := k.neighbours(s, feats)
	pruned = slices.Clone(top)
	checkScratchClean(t, s)
	full = slices.Clone(k.fullTop(s, feats))
	checkScratchClean(t, s)
	return pruned, full, path, cands
}

// checkScratchClean: between calls a kNN scratch's accumulator is all zero
// and no example is marked, whichever path the last call took.
func checkScratchClean(t testing.TB, s *knnScratch) {
	t.Helper()
	if len(s.touched) != 0 {
		t.Fatalf("scratch keeps %d touched examples", len(s.touched))
	}
	for d := range s.acc {
		if s.acc[d] != 0 || s.seen[d] {
			t.Fatalf("scratch keeps example %d: acc %v, seen %v", d, s.acc[d], s.seen[d])
		}
	}
}

// knnPathOf interns it against k's vocabulary and returns the path its
// prediction takes and how many candidates the pruned search scored.
func knnPathOf(t testing.TB, k *KNN, it *catalog.Item) (knnPath, int) {
	t.Helper()
	s := getScratch()
	defer predictPool.Put(s)
	s.intern(k.voc, it)
	pruned, full, path, cands := knnSearch(t, k, s.ids)
	if path != knnFullScan {
		if d := diffNeighbours(pruned, full); d != "" {
			t.Fatalf("item %s: pruned neighbours differ from the full scan's: %s", it.ID, d)
		}
	}
	return path, cands
}

func diffNeighbours(got, want []scored) string {
	if len(got) != len(want) {
		return fmt.Sprintf("got %d neighbours %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i].id != want[i].id || math.Float64bits(got[i].score) != math.Float64bits(want[i].score) {
			return fmt.Sprintf("rank %d: got doc %d %x, want doc %d %x", i,
				got[i].id, math.Float64bits(got[i].score), want[i].id, math.Float64bits(want[i].score))
		}
	}
	return ""
}

// boundFixture is 63 training items, so idf = log(64/df): 32 hold only
// "lng" (long, idf log 2, and each such item's weight-to-norm ratio is 1), 8
// hold "shrt" (short, idf log 8) plus extra unique words each, and the rest
// are unique filler words.
func boundFixture(extra int) []*catalog.Item {
	var items []*catalog.Item
	add := func(ty, title string) {
		items = append(items, &catalog.Item{ID: fmt.Sprint(len(items)), TrueType: ty, Attrs: map[string]string{"Title": title}})
	}
	unique := func() string { return fmt.Sprint("zq", len(items)) }
	for i := 0; i < 32; i++ {
		add(fmt.Sprint("long-", i%4), "lng")
	}
	for i := 0; i < 8; i++ {
		words := []string{"shrt"}
		for j := 0; j < extra; j++ {
			words = append(words, fmt.Sprint(unique(), "y", j))
		}
		add(fmt.Sprint("short-", i), strings.Join(words, " "))
	}
	for len(items) < 63 {
		add("filler", unique())
	}
	return items
}

// TestKNNPruningEngages: the equivalence tests would pass if pruning never
// ran, so this checks which path each query takes, and that its prediction
// is the reference's bit for bit: on hand-built training sets at both sides
// of the bound, and at the benchmark world's shape, where the pruned path
// must answer almost every query.
func TestKNNPruningEngages(t *testing.T) {
	cases := []struct {
		name  string
		extra int // unique words beside "shrt" in each short item
		k     int
		title string
		want  knnPath
	}{
		// "lng" items score log 2 / qNorm; diluted "shrt" items far less.
		{"non-candidate beats every candidate", 6, 3, "lng shrt", knnFullScan},
		// log 8 = 3 log 2: the "shrt" items score the bound in real
		// arithmetic, and within rounding of it in floats.
		{"k-th candidate at the bound", 0, 1, "lng lng lng shrt", knnFullScan},
		{"K above the candidate count", 0, 10, "lng shrt", knnFullScan},
		{"only long features", 0, 3, "lng lng", knnFullScan},
		{"no long feature", 6, 3, "shrt", knnShortOnly},
		{"no long feature, K above the candidate count", 6, 10, "shrt", knnShortOnly},
		{"k-th candidate beats the bound", 0, 3, "lng shrt", knnBounded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			train := boundFixture(tc.extra)
			got, want := NewKNN(tc.k), learnref.NewKNN(tc.k)
			got.Train(train)
			want.Train(train)
			q := &catalog.Item{ID: "q", Attrs: map[string]string{"Title": tc.title}}
			if path, cands := knnPathOf(t, got, q); path != tc.want {
				t.Fatalf("path %d with %d candidates, want %d", path, cands, tc.want)
			}
			if d := diffPredictions(got.Predict(q), want.Predict(q)); d != "" {
				t.Fatal(d)
			}
		})
	}
	if rel := math.Abs(math.Log(8)-3*math.Log(2)) / math.Log(8); rel > 1e-15 {
		t.Fatalf("fixture: log 8 and 3 log 2 differ by %g relative, not a tie at the bound", rel)
	}
	// Acceptance is strict, with a margin for rounding: a similarity equal to
	// the bound, or above it by less than the margin, does not beat it.
	for _, b := range []float64{0.25, 1e-300, 0.7} {
		if beatsBound(b, b) || beatsBound(b*(1+knnPruneMargin/2), b) || !beatsBound(b*(1+2*knnPruneMargin), b) {
			t.Fatalf("beatsBound around %g: equal %v, half the margin above %v, twice the margin above %v",
				b, beatsBound(b, b), beatsBound(b*(1+knnPruneMargin/2), b), beatsBound(b*(1+2*knnPruneMargin), b))
		}
	}

	t.Run("world", func(t *testing.T) {
		cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
		train := cat.LabeledData(2000)
		got, want := NewKNN(5), learnref.NewKNN(5)
		got.Train(train)
		want.Train(train)
		if len(got.long) == 0 {
			t.Fatal("no long feature at the world's shape")
		}
		items := cat.GenerateBatch(catalog.BatchSpec{Size: 2048, Epoch: 1})
		var pruned, cands int
		for _, it := range items {
			path, n := knnPathOf(t, got, it)
			if path != knnFullScan {
				pruned++
			}
			cands += n
			if d := diffPredictions(got.Predict(it), want.Predict(it)); d != "" {
				t.Fatalf("item %s: %s", it.ID, d)
			}
		}
		if share := float64(pruned) / float64(len(items)); share < 0.95 {
			t.Fatalf("pruned path answered %.1f%% of %d items, want >= 95%%", 100*share, len(items))
		}
		t.Logf("pruned %d of %d items, %.1f candidates per item, %d long features",
			pruned, len(items), float64(cands)/float64(len(items)), len(got.long))
	})
}

// fuzzKNNTrainSet builds a training set from data: a vocabulary of 2–16
// features (the fewer, the more of them long), then 1–64 documents of up to
// seven feature draws each (repeats are term frequency). A document whose
// length byte has its high bit set copies an earlier one under the next
// label, so exact duplicates tie across the K-th cut. It returns the
// unconsumed bytes.
func fuzzKNNTrainSet(data []byte) (*trainSet, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nFeat := 2 + int(next()%15)
	nDocs := 1 + int(next()%64)
	voc := &vocabulary{ids: map[string]int32{}, classes: []string{"a", "b", "c", "d"}}
	for f := 0; f < nFeat; f++ {
		voc.ids[fmt.Sprint("f", f)] = int32(f)
	}
	ts := &trainSet{voc: voc}
	for i := 0; i < nDocs; i++ {
		n := next()
		if n&0x80 != 0 && i > 0 {
			src := int(n&0x7f) % i
			ts.feats = append(ts.feats, slices.Clone(ts.feats[src]))
			ts.labels = append(ts.labels, (ts.labels[src]+1)%4)
			continue
		}
		var fs []int32
		for j := 0; j < 1+int(n%7); j++ {
			fs = append(fs, int32(next())%int32(nFeat))
		}
		ts.feats = append(ts.feats, fs)
		ts.labels = append(ts.labels, int32(n>>3)%4)
	}
	return ts, data
}

// FuzzKNNPrunedMatchesFullScan trains kNN on small random training sets and
// checks, for every K in 1–8, that the neighbours the pruned search settles
// on are the full scan's: the same documents in the same order with the
// same similarity bits. Queries are every training document and the byte
// runs after the training set, where a byte of 0xf0 or above is an unseen
// feature; they may hold only long features, only short ones, or none.
func FuzzKNNPrunedMatchesFullScan(f *testing.F) {
	f.Add([]byte{0, 8, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte{14, 40, 3, 0, 1, 5, 130, 129, 2, 9, 10, 11, 1, 0, 3, 15, 16, 0, 12, 2, 0, 3, 0xf5, 0, 1})
	f.Add([]byte{1, 63, 0x81, 0x82, 0x83, 6, 1, 1, 1, 1, 1, 1, 0, 2, 0, 1, 0xff, 0xff})
	f.Add([]byte{6, 20, 1, 7, 2, 8, 3, 9, 4, 2, 5, 6, 0x90, 1, 0, 0, 0, 0, 0, 0, 0, 3, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, rest := fuzzKNNTrainSet(data)
		k := NewKNN(5)
		k.train(ts)
		queries := slices.Clone(ts.feats)
		for len(rest) > 0 {
			n := 1 + int(rest[0]%6)
			rest = rest[1:]
			var q []int32
			for ; n > 0 && len(rest) > 0; n-- {
				f := int32(-1)
				if rest[0] < 0xf0 {
					f = int32(rest[0]) % int32(len(k.post))
				}
				if f >= 0 && len(k.post[f].docs) == 0 {
					f = -1 // a vocabulary holds only features some document has
				}
				q, rest = append(q, f), rest[1:]
			}
			queries = append(queries, q)
		}
		for qi, q := range queries {
			for kk := 1; kk <= 8; kk++ {
				k.K = kk
				pruned, full, path, _ := knnSearch(t, k, q)
				if path == knnFullScan {
					continue
				}
				if d := diffNeighbours(pruned, full); d != "" {
					t.Fatalf("query %d %v, K=%d, path %d: %s", qi, q, kk, path, d)
				}
			}
		}
	})
}

// knnSink keeps the benchmark's predictions live.
var knnSink []Prediction

// BenchmarkKNNPredictWorld times kNN's Predict at the benchmark world's
// shape (250 types, 2,000 training items, 256 Epoch-1 queries) and reports
// how often a prediction falls back to the full scan and how many
// candidates the pruned search scores.
func BenchmarkKNNPredictWorld(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	k := NewKNN(5)
	k.Train(cat.LabeledData(2000))
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 256, Epoch: 1})
	paths, cands := make([]knnPath, len(items)), make([]int, len(items))
	for i, it := range items {
		paths[i], cands[i] = knnPathOf(b, k, it)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fallbacks, scored int
	for i := 0; i < b.N; i++ {
		j := i % len(items)
		knnSink = k.Predict(items[j])
		if paths[j] == knnFullScan {
			fallbacks++
		}
		scored += cands[j]
	}
	b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
	b.ReportMetric(float64(scored)/float64(b.N), "candidates/op")
}
