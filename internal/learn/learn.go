// Package learn implements the learning-based classifiers of the paper's
// §3.1 default solution — the families Chimera's ensemble uses: multinomial
// Naive Bayes, k-nearest-neighbour over TF-IDF cosine, and an averaged
// multiclass perceptron standing in for the linear SVM. A weighted-vote
// ensemble combines them.
//
// Everything trains on catalog items and predicts ranked (type, score)
// lists; scores are calibrated to [0,1] so the Voting Master can threshold
// them uniformly. Train interns every feature and class into one vocabulary
// (feature IDs in string order, classes in type order) and folds each model
// into per-feature postings, so a prediction touches only the postings of
// the item's own features and sums into dense per-call arrays. The ensemble
// interns an item once for all its members and votes into a class-indexed
// array. Every float64 a prediction returns is the one the map-based models
// of package learnref compute: each sum adds the same terms in the same
// order.
//
// An Ensemble publishes its trained state as an immutable Model, the way the
// serving layer publishes rule snapshots: Train builds the next Model beside
// the current one and swaps it in atomically, so retraining while the
// ensemble serves never changes memory a concurrent Predict reads.
package learn

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/tokenize"
)

// Prediction is one ranked class guess.
type Prediction struct {
	Type  string
	Score float64 // in [0,1], higher is more confident
}

// Classifier is the common train/predict contract. Train replaces any
// previous model. Predict returns predictions sorted by descending score;
// implementations return nil when they cannot make a prediction at all.
type Classifier interface {
	Name() string
	Train(items []*catalog.Item)
	Predict(it *catalog.Item) []Prediction
}

// Features extracts the feature multiset for an item: normalized title
// unigrams, title bigrams, attribute-presence features (attr:isbn — the
// "if a product has an attribute called isbn it is a book" signal), and
// brand-value features.
func Features(it *catalog.Item) []string {
	tokens := tokenize.NormalizeTokens(it.TitleTokens())
	feats := make([]string, 0, len(tokens)*2+4)
	feats = append(feats, tokens...)
	for i := 0; i+1 < len(tokens); i++ {
		feats = append(feats, tokens[i]+"_"+tokens[i+1])
	}
	// Attribute names are appended in sorted order: feature-vector order
	// feeds floating-point sums in the learners, and map iteration order
	// would make those sums (and near-tie predictions) vary across runs.
	attrs := make([]string, 0, len(it.Attrs))
	for attr := range it.Attrs {
		switch attr {
		case "Title", "Description":
			continue
		}
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		feats = append(feats, "attr:"+strings.ToLower(attr))
	}
	if b, ok := it.Attrs["Brand Name"]; ok {
		feats = append(feats, "brand:"+strings.ToLower(b))
	}
	return feats
}

// sortPredictions orders by score descending, then type ascending. Scores
// are never NaN and types are unique, so the order is total and any correct
// sort returns the same list.
func sortPredictions(ps []Prediction) {
	slices.SortFunc(ps, func(a, b Prediction) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Type, b.Type)
	})
}

// ---------------------------------------------------------------------------
// Vocabulary: feature IDs and class indices
// ---------------------------------------------------------------------------

// vocabulary is the feature and class table a model is trained on and
// predicts through. Feature IDs are assigned in ascending string order, so
// sorting IDs sorts the features they stand for; classes are sorted, so class
// index order is type order. Ensemble.Train builds one vocabulary and trains
// every member from it; a member's own Train builds its own.
type vocabulary struct {
	ids     map[string]int32
	classes []string
}

// trainSet is a training set interned against its vocabulary.
type trainSet struct {
	voc    *vocabulary
	feats  [][]int32 // per item: the IDs of Features(item), in order
	labels []int32   // per item: the class index of its TrueType
}

func newTrainSet(items []*catalog.Item) *trainSet {
	feats := make([][]string, len(items))
	var all []string
	classes := make([]string, len(items))
	for i, it := range items {
		feats[i] = Features(it)
		all = append(all, feats[i]...)
		classes[i] = it.TrueType
	}
	slices.Sort(all)
	slices.Sort(classes)
	all = slices.Compact(all)
	voc := &vocabulary{ids: make(map[string]int32, len(all)), classes: slices.Clone(slices.Compact(classes))}
	for i, f := range all {
		voc.ids[f] = int32(i)
	}
	ts := &trainSet{voc: voc, feats: make([][]int32, len(items)), labels: make([]int32, len(items))}
	for i, fs := range feats {
		ids := make([]int32, len(fs))
		for j, f := range fs {
			ids[j] = voc.ids[f]
		}
		c, _ := slices.BinarySearch(voc.classes, items[i].TrueType)
		ts.feats[i], ts.labels[i] = ids, int32(c)
	}
	return ts
}

// trained reports whether the vocabulary has any class to predict.
func (v *vocabulary) trained() bool { return v != nil && len(v.classes) > 0 }

// id returns the ID of feature f, -1 when f is outside the vocabulary.
func (v *vocabulary) id(f string) int32 {
	if id, ok := v.ids[f]; ok {
		return id
	}
	return -1
}

// keyID is id for a feature assembled in a byte buffer: the string(key)
// conversion in a map index does not allocate.
func (v *vocabulary) keyID(key []byte) int32 {
	if id, ok := v.ids[string(key)]; ok {
		return id
	}
	return -1
}

// predictions turns ranked class scores into a Prediction list, nil when
// there are none.
func (v *vocabulary) predictions(ranked []scored) []Prediction {
	if len(ranked) == 0 {
		return nil
	}
	preds := make([]Prediction, len(ranked))
	for i, cs := range ranked {
		preds[i] = Prediction{Type: v.classes[cs.id], Score: cs.score}
	}
	return preds
}

// predictScratch is one prediction's reusable buffers: the item's feature
// IDs, the buffers interning needs, a member's ranked output, and the
// ensemble's dense class-indexed votes. Between uses votes is all zero and
// seen all false.
type predictScratch struct {
	ids     []int32
	key     []byte
	attrs   []string
	ranked  []scored
	votes   []float64
	seen    []bool
	touched []int32
}

var predictPool sync.Pool // *predictScratch

func getScratch() *predictScratch {
	if s, ok := predictPool.Get().(*predictScratch); ok {
		return s
	}
	return &predictScratch{}
}

// intern sets s.ids to the vocabulary IDs of Features(it), in the same order
// and with the same duplicates, -1 for a feature outside the vocabulary. It
// builds no feature string: bigram, attr: and brand: keys are assembled in
// s.key.
func (s *predictScratch) intern(voc *vocabulary, it *catalog.Item) {
	ids, key := s.ids[:0], s.key[:0]
	tokens := it.TitleTokens()
	for _, t := range tokens {
		if !tokenize.DefaultStopwords[t] {
			ids = append(ids, voc.id(t))
		}
	}
	prev := -1
	for i, t := range tokens {
		if tokenize.DefaultStopwords[t] {
			continue
		}
		if prev >= 0 {
			key = append(append(append(key[:0], tokens[prev]...), '_'), t...)
			ids = append(ids, voc.keyID(key))
		}
		prev = i
	}
	attrs := s.attrs[:0]
	for attr := range it.Attrs {
		switch attr {
		case "Title", "Description":
			continue
		}
		attrs = append(attrs, attr)
	}
	slices.Sort(attrs)
	for _, attr := range attrs {
		key = appendLower(append(key[:0], "attr:"...), attr)
		ids = append(ids, voc.keyID(key))
	}
	clear(attrs) // the pooled scratch must not keep the item's strings alive
	if b, ok := it.Attrs["Brand Name"]; ok {
		key = appendLower(append(key[:0], "brand:"...), b)
		ids = append(ids, voc.keyID(key))
	}
	s.ids, s.key, s.attrs = ids, key, attrs[:0]
}

// appendLower appends strings.ToLower(s) to b. Only a non-ASCII s allocates.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(b, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// ---------------------------------------------------------------------------
// The member kernel every model shares
// ---------------------------------------------------------------------------

// member is a model that predicts from feature IDs: NaiveBayes, KNN and
// Perceptron.
type member interface {
	Classifier
	// untrained returns a new, untrained model of the same kind and settings.
	untrained() member
	// train replaces the model with one trained on ts, adopting ts.voc.
	train(ts *trainSet)
	// vocab returns the vocabulary the model was last trained on (nil before
	// any training).
	vocab() *vocabulary
	// predictIDs ranks classes for an item's feature IDs (from vocab(); -1
	// for unseen features) into buf[:0]. The model must be trained.
	predictIDs(ids []int32, buf []scored) []scored
}

// predictItem is a member's Predict: it interns the item against the
// member's own vocabulary and converts the ranked classes.
func predictItem(m member, it *catalog.Item) []Prediction {
	voc := m.vocab()
	if !voc.trained() {
		return nil
	}
	s := getScratch()
	s.intern(voc, it)
	s.ranked = m.predictIDs(s.ids, s.ranked)
	preds := voc.predictions(s.ranked)
	predictPool.Put(s)
	return preds
}

// scored is an index with its score: a class with its prediction score, or
// in kNN a training example with its similarity.
type scored struct {
	id    int32
	score float64
}

// before orders by score descending, then index ascending. For classes this
// is sortPredictions' order, since class index order is type order.
func (a scored) before(b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// insertTop inserts c into top, which is kept in before order and holds at
// most k entries. When top is full, the caller has checked that c is before
// its last entry, which c replaces.
func insertTop(top []scored, c scored, k int) []scored {
	if len(top) == k {
		top[k-1] = c
	} else {
		top = append(top, c)
	}
	for j := len(top) - 1; j > 0 && top[j].before(top[j-1]); j-- {
		top[j], top[j-1] = top[j-1], top[j]
	}
	return top
}

// sortRanked sorts a short list into before order: an insertion sort that
// inserts each entry into the sorted prefix before it.
func sortRanked(ss []scored) {
	for i := 1; i < len(ss); i++ {
		insertTop(ss[:i], ss[i], i+1)
	}
}

// classWeight is one posting entry: a class index and the feature's term
// for that class. Postings list classes in ascending index order.
type classWeight struct {
	class int32
	w     float64
}

// scratchFloats takes a zeroed []float64 of length n from pool (a fresh one
// when the pool has none large enough); the caller puts it back when done.
// Predict is called concurrently, so per-call arrays cannot live on the model.
func scratchFloats(pool *sync.Pool, n int) *[]float64 {
	sp, _ := pool.Get().(*[]float64)
	if sp == nil || cap(*sp) < n {
		s := make([]float64, n)
		return &s
	}
	*sp = (*sp)[:n]
	clear(*sp)
	return sp
}

// softmaxTop5 ranks the five best softmax-normalized class scores into
// buf[:0]; temp divides each score's distance from the maximum. Each
// exponential is computed once, and scores is overwritten with them. The
// top five are kept by insertion under before; classes arrive in index
// order, so a later class with an equal score never displaces an earlier one.
func softmaxTop5(scores []float64, temp float64, buf []scored) []scored {
	maxS := math.Inf(-1)
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for i, s := range scores {
		e := math.Exp((s - maxS) / temp)
		scores[i] = e
		z += e
	}
	top := buf[:0]
	for i, e := range scores {
		c := scored{int32(i), e / z}
		if len(top) == 5 && !c.before(top[4]) {
			continue
		}
		top = insertTop(top, c, 5)
	}
	return top
}

// ---------------------------------------------------------------------------
// Naive Bayes
// ---------------------------------------------------------------------------

// NaiveBayes is a multinomial Naive Bayes classifier with Laplace smoothing.
// Train stores every smoothed log-likelihood a prediction can add, so Predict
// computes no logarithms.
type NaiveBayes struct {
	voc      *vocabulary
	prior    []float64 // log prior, by class index
	defaults []float64 // by class index: the term of a vocabulary feature the class never saw
	// post holds, by feature ID, the classes that saw the feature, with
	// log((count+1)/denom).
	post    [][]classWeight
	scratch sync.Pool // *[]float64 of per-class log posteriors
}

// NewNaiveBayes returns an untrained classifier.
func NewNaiveBayes() *NaiveBayes { return &NaiveBayes{} }

// Name implements Classifier.
func (nb *NaiveBayes) Name() string { return "naive-bayes" }

// Train implements Classifier.
func (nb *NaiveBayes) Train(items []*catalog.Item) { nb.train(newTrainSet(items)) }

func (nb *NaiveBayes) vocab() *vocabulary { return nb.voc }

func (nb *NaiveBayes) untrained() member { return NewNaiveBayes() }

func (nb *NaiveBayes) train(ts *trainSet) {
	nc := len(ts.voc.classes)
	condCount := make([]map[int32]int, nc)
	classTokens := make([]int, nc)
	classN := make([]int, nc)
	for i, fs := range ts.feats {
		c := ts.labels[i]
		classN[c]++
		classTokens[c] += len(fs)
		if condCount[c] == nil {
			condCount[c] = map[int32]int{}
		}
		for _, f := range fs {
			condCount[c][f]++
		}
	}
	total := float64(len(ts.feats))
	v := float64(len(ts.voc.ids) + 1)
	nb.voc = ts.voc
	nb.prior = make([]float64, nc)
	nb.defaults = make([]float64, nc)
	nb.post = make([][]classWeight, len(ts.voc.ids))
	for i := range nb.prior {
		nb.prior[i] = math.Log(float64(classN[i]) / total)
		denom := float64(classTokens[i]) + v
		nb.defaults[i] = math.Log((float64(0) + 1) / denom)
		for f, n := range condCount[i] {
			nb.post[f] = append(nb.post[f], classWeight{int32(i), math.Log((float64(n) + 1) / denom)})
		}
	}
}

// Predict implements Classifier. Scores are softmax-normalized posteriors.
func (nb *NaiveBayes) Predict(it *catalog.Item) []Prediction { return predictItem(nb, it) }

func (nb *NaiveBayes) predictIDs(ids []int32, buf []scored) []scored {
	sp := scratchFloats(&nb.scratch, len(nb.prior))
	logs := *sp
	copy(logs, nb.prior)
	// Feature-outer, class-inner: each class still adds its prior and then
	// one term per vocabulary feature in item order, duplicates included.
	for _, f := range ids {
		if f < 0 {
			continue // unseen features carry no between-class signal
		}
		i := 0
		for _, cw := range nb.post[f] {
			for ; i < int(cw.class); i++ {
				logs[i] += nb.defaults[i]
			}
			logs[i] += cw.w
			i++
		}
		for ; i < len(logs); i++ {
			logs[i] += nb.defaults[i]
		}
	}
	buf = softmaxTop5(logs, 1, buf)
	nb.scratch.Put(sp)
	return buf
}

// ---------------------------------------------------------------------------
// kNN over per-feature postings
// ---------------------------------------------------------------------------

// KNN is a k-nearest-neighbour classifier over TF-IDF cosine similarity.
// Training builds a posting per feature (the training examples holding it,
// ascending, with their TF-IDF weights). A feature is long when its posting
// holds more than a quarter of the examples; for those few, training also
// keeps the weights as a dense array by example and the largest
// weight-to-norm ratio in the posting. A prediction scores only the
// candidates, the examples that share one of the query's short features, and
// accepts their top K when a bound proves that no other example can enter
// it; otherwise it scores every example sharing any feature. Both paths add
// the same terms in the same order, so every similarity, and so every
// prediction, is the full scan's.
type KNN struct {
	K int // default 5; Predict also reads K <= 0 as 5

	voc     *vocabulary
	labels  []int32 // class index, by training example
	norms   []float64
	post    []knnPosting // by feature ID
	long    []knnLong    // the long features, ascending by feature ID
	scratch sync.Pool    // *knnScratch
}

type knnPosting struct {
	idf     float64 // log((nDocs+1)/df), df = len(docs)
	docs    []int32
	weights []float64 // weights[j] = tf(docs[j]) * idf
}

// knnLong is what pruning keeps of a long feature. It is a side table, not a
// field of every posting, because only a handful of features are long.
type knnLong struct {
	feat int32
	// maxNW is the largest weights[j] / norms[docs[j]] over the posting, so
	// the feature adds at most w * maxNW / qNorm to any example's cosine.
	maxNW float64
	// dense is the feature's weight by example, +0 where the example lacks
	// it, so a candidate reads its weight with one load and no branch. A long
	// posting holds more than a quarter of the examples, so dense is less
	// than four times the posting's weights.
	dense []float64
}

// isLongPosting reports whether a posting of df examples out of nDocs is
// long: it holds more than a quarter of them.
func isLongPosting(df, nDocs int) bool { return 4*df > nDocs }

// knnPruneMargin is the relative margin by which the K-th candidate must beat
// the bound on every other example: it covers the rounding of the computed
// similarities and of the bound itself.
const knnPruneMargin = 1e-9

// beatsBound reports whether sim is strictly above bound with
// knnPruneMargin to spare. A similarity equal to the bound does not beat it:
// an example at the bound could tie the K-th and win on its lower index.
func beatsBound(sim, bound float64) bool { return sim > bound+bound*knnPruneMargin }

// knnPath is how a prediction found its neighbours.
type knnPath uint8

const (
	knnShortOnly knnPath = iota // no long query feature: the candidates are every example sharing a feature
	knnBounded                  // the K-th candidate beat the bound on every other example
	knnFullScan                 // too few candidates, or the bound not beaten: every example sharing a feature
)

// knnScratch is one Predict call's dense dot-product accumulator. Between
// calls acc is all zero, seen all false and touched empty.
type knnScratch struct {
	acc     []float64
	seen    []bool
	touched []int32  // the examples marked seen; capacity nDocs+1
	top     []scored // neighbours: (doc, similarity)
	sorted  []int32  // the query's feature IDs, sorted
}

// mark appends each of docs not yet seen to touched. It does not branch on
// seen, which postings that overlap at random make unpredictable: every doc
// is written one past the end, and the end moves only for a new one.
func (s *knnScratch) mark(docs []int32) {
	t, n := s.touched[:cap(s.touched)], len(s.touched)
	for _, doc := range docs {
		t[n] = doc
		if !s.seen[doc] {
			n++
		}
		s.seen[doc] = true
	}
	s.touched = t[:n]
}

// NewKNN returns an untrained kNN classifier with k neighbours.
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k}
}

// Name implements Classifier.
func (k *KNN) Name() string { return "knn" }

// runLen returns how many times sorted[i] repeats from index i on.
func runLen(sorted []int32, i int) int {
	n := 1
	for i+n < len(sorted) && sorted[i+n] == sorted[i] {
		n++
	}
	return n
}

// Train implements Classifier.
func (k *KNN) Train(items []*catalog.Item) { k.train(newTrainSet(items)) }

func (k *KNN) vocab() *vocabulary { return k.voc }

func (k *KNN) untrained() member { return NewKNN(k.K) }

func (k *KNN) train(ts *trainSet) {
	nDocs := len(ts.feats)
	k.voc = ts.voc
	k.labels = ts.labels
	k.norms = make([]float64, nDocs)
	k.post = make([]knnPosting, len(ts.voc.ids))
	k.long = nil

	// Feature IDs are sorted per document, which sorts the features: weights
	// are then appended, and norms summed, in sorted feature order, which
	// keeps both reproducible.
	docFeats := make([][]int32, nDocs)
	for i, fs := range ts.feats {
		fs = slices.Clone(fs)
		slices.Sort(fs)
		docFeats[i] = fs
		for j, n := 0, 0; j < len(fs); j += n {
			n = runLen(fs, j)
			k.post[fs[j]].docs = append(k.post[fs[j]].docs, int32(i))
		}
	}
	for i := range k.post {
		p := &k.post[i]
		p.idf = math.Log(float64(nDocs+1) / float64(len(p.docs)))
		p.weights = make([]float64, 0, len(p.docs))
	}
	for i, fs := range docFeats {
		var norm float64
		for j, n := 0, 0; j < len(fs); j += n {
			n = runLen(fs, j)
			p := &k.post[fs[j]]
			w := float64(n) * p.idf
			norm += w * w
			p.weights = append(p.weights, w)
		}
		k.norms[i] = math.Sqrt(norm)
	}
	for f := range k.post {
		p := &k.post[f]
		if !isLongPosting(len(p.docs), nDocs) {
			continue
		}
		l := knnLong{feat: int32(f), dense: make([]float64, nDocs)}
		for j, doc := range p.docs {
			l.dense[doc] = p.weights[j]
			l.maxNW = max(l.maxNW, p.weights[j]/k.norms[doc])
		}
		k.long = append(k.long, l)
	}
}

// longAt returns the long-feature entry for f, or nil when f is short. The
// caller visits features in ascending order and carries the cursor li, which
// starts at 0.
func (k *KNN) longAt(li *int, f int32) *knnLong {
	for *li < len(k.long) && k.long[*li].feat < f {
		*li++
	}
	if *li < len(k.long) && k.long[*li].feat == f {
		return &k.long[*li]
	}
	return nil
}

// Predict implements Classifier. Scores are the per-class share of summed
// neighbour similarity.
func (k *KNN) Predict(it *catalog.Item) []Prediction { return predictItem(k, it) }

func (k *KNN) predictIDs(ids []int32, buf []scored) []scored {
	s := k.getScratch()
	defer k.scratch.Put(s)
	// Features are visited in sorted order so the floating-point sums — and
	// therefore near-tie rankings — are identical across runs and instances.
	// Unseen features (-1) sort first and are skipped.
	feats := append(s.sorted[:0], ids...)
	slices.Sort(feats)
	s.sorted = feats
	top, _, _ := k.neighbours(s, feats)
	return k.vote(top, buf)
}

func (k *KNN) getScratch() *knnScratch {
	nDocs := len(k.norms)
	s, _ := k.scratch.Get().(*knnScratch)
	if s == nil || len(s.acc) != nDocs {
		s = &knnScratch{acc: make([]float64, nDocs), seen: make([]bool, nDocs), touched: make([]int32, 0, nDocs+1)}
	}
	return s
}

// kk is the number of neighbours a prediction keeps.
func (k *KNN) kk() int {
	if k.K <= 0 {
		return 5
	}
	return k.K
}

// neighbours returns the top K training examples under before for the sorted
// query features, the path that found them, and how many candidates the
// pruned path scored (0 when it did not get that far).
func (k *KNN) neighbours(s *knnScratch, feats []int32) (top []scored, path knnPath, cands int) {
	top, path, cands = k.prunedTop(s, feats)
	if path == knnFullScan {
		top = k.fullTop(s, feats)
	}
	return top, path, cands
}

// prunedTop scores only the candidates: the examples in the query's short
// postings. Long features add to every candidate through their dense
// weights, visited in the same ascending feature order as the full scan, so
// each candidate's accumulator sees the same float additions in the same
// order. Any other example shares only long features with the query, so its
// cosine is at most bound = Σ_long w·maxNW / qNorm; the candidates' top K is
// the true one when there are K of them and the K-th beats that bound
// strictly. Otherwise the path is knnFullScan, top is nil and the scratch is
// clean.
func (k *KNN) prunedTop(s *knnScratch, feats []int32) ([]scored, knnPath, int) {
	kk := k.kk()
	// Step 1: the short postings mark the candidates, and the long features
	// sum the bound. Nothing accumulates yet.
	var qNorm, bound float64
	hasLong := false
	li := 0
	for j, n := 0, 0; j < len(feats); j += n {
		n = runLen(feats, j)
		if feats[j] < 0 {
			continue
		}
		p := &k.post[feats[j]]
		w := float64(n) * p.idf
		qNorm += w * w
		if l := k.longAt(&li, feats[j]); l != nil {
			hasLong = true
			bound += w * l.maxNW
			continue
		}
		s.mark(p.docs)
	}
	cands := len(s.touched)
	if hasLong && cands < kk {
		for _, doc := range s.touched {
			s.seen[doc] = false
		}
		s.touched = s.touched[:0]
		return nil, knnFullScan, cands
	}
	if cands == 0 {
		return s.top[:0], knnShortOnly, 0 // no feature shared with any training example
	}
	qNorm = math.Sqrt(qNorm)
	// Step 2: every feature in ascending order adds to the candidates.
	li = 0
	for j, n := 0, 0; j < len(feats); j += n {
		n = runLen(feats, j)
		if feats[j] < 0 {
			continue
		}
		p := &k.post[feats[j]]
		w := float64(n) * p.idf
		if l := k.longAt(&li, feats[j]); l != nil {
			for _, doc := range s.touched {
				s.acc[doc] += w * l.dense[doc] // adding +0 leaves acc as it is: acc is never -0
			}
			continue
		}
		for d, doc := range p.docs {
			s.acc[doc] += w * p.weights[d]
		}
	}
	top := k.topK(s, qNorm, kk)
	if !hasLong {
		return top, knnShortOnly, cands
	}
	// Step 3: accept only when the K-th candidate beats the bound.
	if beatsBound(top[kk-1].score, bound/qNorm) {
		return top, knnBounded, cands
	}
	return nil, knnFullScan, cands
}

// fullTop scores every example that shares a feature with the query.
func (k *KNN) fullTop(s *knnScratch, feats []int32) []scored {
	var qNorm float64
	for j, n := 0, 0; j < len(feats); j += n {
		n = runLen(feats, j)
		if feats[j] < 0 {
			continue
		}
		p := &k.post[feats[j]]
		w := float64(n) * p.idf
		qNorm += w * w
		s.mark(p.docs)
		for d, doc := range p.docs {
			s.acc[doc] += w * p.weights[d]
		}
	}
	if len(s.touched) == 0 {
		return s.top[:0] // no feature shared with any training example
	}
	return k.topK(s, math.Sqrt(qNorm), k.kk())
}

// topK turns the touched examples' dot products into similarities and keeps
// the top kk under before, the total order a full sort of every touched
// example would use, by insertion into a kk-slot array. It leaves the
// scratch clean.
func (k *KNN) topK(s *knnScratch, qNorm float64, kk int) []scored {
	top := s.top[:0]
	for _, doc := range s.touched {
		c := scored{doc, s.acc[doc] / (qNorm * k.norms[doc])}
		s.acc[doc], s.seen[doc] = 0, false
		if len(top) == kk && !c.before(top[kk-1]) {
			continue
		}
		top = insertTop(top, c, kk)
	}
	s.touched, s.top = s.touched[:0], top
	return top
}

// vote ranks the neighbours' classes by their share of summed similarity.
func (k *KNN) vote(top []scored, buf []scored) []scored {
	ranked := buf[:0]
	var total float64
	for _, c := range top {
		label := k.labels[c.id]
		i := 0
		for i < len(ranked) && ranked[i].id != label {
			i++
		}
		if i == len(ranked) {
			ranked = append(ranked, scored{id: label})
		}
		ranked[i].score += c.score
		total += c.score
	}
	if total <= 0 {
		return ranked[:0]
	}
	for i := range ranked {
		ranked[i].score /= total
	}
	sortRanked(ranked)
	return ranked
}

// ---------------------------------------------------------------------------
// Averaged perceptron
// ---------------------------------------------------------------------------

// Perceptron is a multiclass averaged perceptron — the stdlib-only stand-in
// for Chimera's linear SVM.
type Perceptron struct {
	Epochs int // default 5

	voc *vocabulary
	// post holds, by feature ID, the feature's non-zero averaged weights. A
	// class's score starts at +0 and adds only non-zero terms, so no partial
	// sum is -0 and leaving out the zero weights changes no sum.
	post    [][]classWeight
	scratch sync.Pool // *[]float64 of per-class scores
}

// NewPerceptron returns an untrained perceptron.
func NewPerceptron(epochs int) *Perceptron {
	if epochs <= 0 {
		epochs = 5
	}
	return &Perceptron{Epochs: epochs}
}

// Name implements Classifier.
func (p *Perceptron) Name() string { return "perceptron" }

// Train implements Classifier. Uses the standard averaging trick
// (accumulate weight * remaining updates) for stability.
func (p *Perceptron) Train(items []*catalog.Item) { p.train(newTrainSet(items)) }

func (p *Perceptron) vocab() *vocabulary { return p.voc }

func (p *Perceptron) untrained() member { return NewPerceptron(p.Epochs) }

func (p *Perceptron) train(ts *trainSet) {
	nc := len(ts.voc.classes)
	w := make([]map[int32]float64, nc)
	acc := make([]map[int32]float64, nc)
	for i := range w {
		w[i] = map[int32]float64{}
		acc[i] = map[int32]float64{}
	}
	steps := p.Epochs * len(ts.feats)
	step := 0
	for epoch := 0; epoch < p.Epochs; epoch++ {
		for i, fs := range ts.feats {
			step++
			truth := ts.labels[i]
			pred := argmax(w, fs)
			if pred != truth {
				remain := float64(steps - step + 1)
				for _, f := range fs {
					w[truth][f]++
					acc[truth][f] += remain
					w[pred][f]--
					acc[pred][f] -= remain
				}
			}
		}
	}
	p.voc = ts.voc
	p.post = make([][]classWeight, len(ts.voc.ids))
	for i := range acc {
		for f, v := range acc[i] {
			if avg := v / float64(steps); avg != 0 {
				p.post[f] = append(p.post[f], classWeight{int32(i), avg})
			}
		}
	}
}

// argmax returns the first class with the highest score under weights w.
func argmax(w []map[int32]float64, feats []int32) int32 {
	best, bestScore := int32(-1), math.Inf(-1)
	for cl, cw := range w {
		var s float64
		for _, f := range feats {
			s += cw[f]
		}
		if s > bestScore {
			best, bestScore = int32(cl), s
		}
	}
	return best
}

// Predict implements Classifier. Margins are softmax-normalized.
func (p *Perceptron) Predict(it *catalog.Item) []Prediction { return predictItem(p, it) }

func (p *Perceptron) predictIDs(ids []int32, buf []scored) []scored {
	sp := scratchFloats(&p.scratch, len(p.voc.classes))
	scores := *sp
	for _, f := range ids {
		if f < 0 {
			continue
		}
		for _, cw := range p.post[f] {
			scores[cw.class] += cw.w
		}
	}
	buf = softmaxTop5(scores, 4, buf) // temperature softens raw margins
	p.scratch.Put(sp)
	return buf
}

// ---------------------------------------------------------------------------
// Ensemble
// ---------------------------------------------------------------------------

// Ensemble combines member classifiers with weighted score voting (§3.1:
// "train a set of learning-based classifiers, often combining them into an
// ensemble"). Its trained state is a Model, published atomically: Predict
// reads one Model, and Train publishes the next without touching the one
// being read.
type Ensemble struct {
	// members are the constructor's classifiers. Train trains a fresh model
	// of each of the package's own kinds (same settings) and any other
	// Classifier in place.
	members []Classifier
	weights []float64
	trainMu sync.Mutex // serializes Train, so generations publish in order
	model   atomic.Pointer[Model]
}

// Model is one trained state of an Ensemble: its members, trained together,
// and the generation that names it (0 until the first Train, +1 per Train).
// A Model is immutable once published, so any number of goroutines may
// predict through it while the ensemble retrains. (A member retrained
// through its own Train, or a Classifier from outside this package, changes
// in place; neither is safe while the model serves.)
type Model struct {
	gen     uint64
	members []Classifier
	weights []float64
	// voc is the vocabulary Train trained the members on (nil before). While
	// every member still reads it, Predict interns an item once and votes
	// into a dense class-indexed array.
	voc *vocabulary
}

// NewEnsemble builds an ensemble; weights default to 1 each when nil. Every
// weight must be finite and non-negative, and their sum positive and finite,
// so that every Prediction.Score is a share in [0,1]. It keeps copies of both
// slices, so later edits by the caller do not reach it.
func NewEnsemble(members []Classifier, weights []float64) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("learn: ensemble needs at least one member")
	}
	if weights == nil {
		weights = make([]float64, len(members))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(members) {
		return nil, fmt.Errorf("learn: %d weights for %d members", len(weights), len(members))
	}
	var sum float64
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("learn: member %d has weight %v, want a finite non-negative number", i, w)
		}
		sum += w
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return nil, fmt.Errorf("learn: weights %v sum to %v, want a positive finite sum", weights, sum)
	}
	e := &Ensemble{members: slices.Clone(members), weights: slices.Clone(weights)}
	e.model.Store(&Model{members: e.members, weights: e.weights})
	return e, nil
}

// Name implements Classifier.
func (e *Ensemble) Name() string { return "ensemble" }

// Train trains every member on the same data — the package's own models as
// fresh instances from one shared vocabulary, any other Classifier through
// its Train — and publishes them as the next generation's Model.
func (e *Ensemble) Train(items []*catalog.Item) {
	e.trainMu.Lock()
	defer e.trainMu.Unlock()
	ts := newTrainSet(items)
	next := &Model{
		gen:     e.model.Load().gen + 1,
		members: make([]Classifier, len(e.members)),
		weights: e.weights,
		voc:     ts.voc,
	}
	for i, m := range e.members {
		if d, ok := m.(member); ok {
			fresh := d.untrained()
			fresh.train(ts)
			next.members[i] = fresh
		} else {
			m.Train(items)
			next.members[i] = m
		}
	}
	e.model.Store(next)
}

// Model returns the current trained state. A caller that needs one model for
// several predictions (a batch, or a decision and its generation) reads it
// once and predicts through it.
func (e *Ensemble) Model() *Model { return e.model.Load() }

// Predict is the current Model's Predict.
func (e *Ensemble) Predict(it *catalog.Item) []Prediction { return e.model.Load().Predict(it) }

// Members exposes the current model's classifiers (for per-member
// diagnostics); before the first Train, the constructor's.
func (e *Ensemble) Members() []Classifier { return e.model.Load().members }

// Generation returns the model's generation: 0 until the ensemble's first
// Train, then +1 per Train.
func (m *Model) Generation() uint64 { return m.gen }

// sharesVocab reports whether every member is one of the package's models
// still trained on m.voc. A member retrained on its own, or a Classifier from
// elsewhere, sends Predict down the per-member path.
func (m *Model) sharesVocab() bool {
	if m.voc == nil {
		return false
	}
	for _, c := range m.members {
		if d, ok := c.(member); !ok || d.vocab() != m.voc {
			return false
		}
	}
	return true
}

// Predict sums weighted member scores and renormalizes. Every type's vote,
// and the total, add the same terms in member and then rank order on both
// paths, so the two return the same floats.
func (m *Model) Predict(it *catalog.Item) []Prediction {
	if !m.sharesVocab() {
		return m.predictEach(it)
	}
	voc := m.voc
	if !voc.trained() {
		return nil
	}
	s := getScratch()
	defer predictPool.Put(s)
	if n := len(voc.classes); cap(s.votes) < n {
		s.votes, s.seen = make([]float64, n), make([]bool, n)
	} else {
		s.votes, s.seen = s.votes[:n], s.seen[:n]
	}
	s.intern(voc, it)
	var total float64
	touched := s.touched[:0]
	for i, c := range m.members {
		s.ranked = c.(member).predictIDs(s.ids, s.ranked)
		for _, cs := range s.ranked {
			if !s.seen[cs.id] {
				s.seen[cs.id] = true
				touched = append(touched, cs.id)
			}
			v := m.weights[i] * cs.score
			s.votes[cs.id] += v
			total += v
		}
	}
	ranked := s.ranked[:0]
	for _, c := range touched {
		ranked = append(ranked, scored{c, s.votes[c] / total})
		s.votes[c], s.seen[c] = 0, false
	}
	s.touched, s.ranked = touched[:0], ranked
	if total <= 0 {
		return nil
	}
	sortRanked(ranked)
	return voc.predictions(ranked)
}

// predictEach is Predict through every member's own Predict, for models
// whose members do not share one vocabulary. An untrained member returns nil
// at once, so an untrained model does no work here.
func (m *Model) predictEach(it *catalog.Item) []Prediction {
	var votes []Prediction
	var total float64
	for i, c := range m.members {
		for _, p := range c.Predict(it) {
			j := 0
			for j < len(votes) && votes[j].Type != p.Type {
				j++
			}
			if j == len(votes) {
				votes = append(votes, Prediction{Type: p.Type})
			}
			v := m.weights[i] * p.Score
			votes[j].Score += v
			total += v
		}
	}
	if total <= 0 {
		return nil
	}
	for j := range votes {
		votes[j].Score /= total
	}
	sortPredictions(votes)
	return votes
}

// ---------------------------------------------------------------------------
// Evaluation helpers
// ---------------------------------------------------------------------------

// Accuracy returns top-1 accuracy of c on items (which carry ground truth).
func Accuracy(c Classifier, items []*catalog.Item) float64 {
	if len(items) == 0 {
		return 0
	}
	correct := 0
	for _, it := range items {
		ps := c.Predict(it)
		if len(ps) > 0 && ps[0].Type == it.TrueType {
			correct++
		}
	}
	return float64(correct) / float64(len(items))
}

// PrecisionRecallAt measures precision and recall when predictions below
// the confidence threshold are declined: precision over emitted predictions,
// recall as emitted-and-correct over all items (the paper's operating mode:
// "maintain precision ≥92%, tolerate lower recall").
func PrecisionRecallAt(c Classifier, items []*catalog.Item, threshold float64) (precision, recall float64) {
	emitted, correct := 0, 0
	for _, it := range items {
		ps := c.Predict(it)
		if len(ps) == 0 || ps[0].Score < threshold {
			continue
		}
		emitted++
		if ps[0].Type == it.TrueType {
			correct++
		}
	}
	if emitted > 0 {
		precision = float64(correct) / float64(emitted)
	}
	if len(items) > 0 {
		recall = float64(correct) / float64(len(items))
	}
	return precision, recall
}
