package repro

// One benchmark per paper table/figure/number (E1–E11, see DESIGN.md's
// per-experiment index), each reporting the headline quantities via
// b.ReportMetric, plus micro-benchmarks for the hot paths (pattern matching,
// rule-index lookup, executor throughput, mining, the synonym tool).
//
// Experiment benchmarks run the corresponding experiments.E* function at a
// bench-sized scale: large enough for the paper's shape to show, small
// enough that `go test -bench=.` completes on a laptop.
//
// End-to-end serving and batch throughput, mutation visibility, cache and
// persistence cost are not measured here: BENCHMARK.json + benchmark/ is the
// benchmark of record for those (10,000 rules, four workloads, noise band).

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/pattern"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/synonym"
	"repro/internal/tokenize"
)

// reportRow surfaces a named table cell as a benchmark metric when it
// parses as a number.
func reportCell(b *testing.B, rep *experiments.Report, rowPrefix, metric string, col int) {
	b.Helper()
	for _, row := range rep.Rows {
		if len(row) > col && len(row[0]) >= len(rowPrefix) && row[0][:len(rowPrefix)] == rowPrefix {
			if v, err := strconv.ParseFloat(row[col], 64); err == nil {
				b.ReportMetric(v, metric)
			}
			return
		}
	}
}

func reportShape(b *testing.B, rep *experiments.Report) {
	b.Helper()
	if rep.ShapeOK {
		b.ReportMetric(1, "shape_ok")
	} else {
		b.ReportMetric(0, "shape_ok")
		b.Logf("%s shape not reproduced at bench scale:\n%s", rep.ID, rep.Markdown())
	}
}

// BenchmarkE1_ChimeraPrecision regenerates §3.3's precision/recall table:
// learning-only vs rules-only vs combined against the 92% gate.
func BenchmarkE1_ChimeraPrecision(b *testing.B) {
	// E1's shape (learning-only misses the gate) needs the full taxonomy
	// and training sizes; smaller catalogs are too easy for the ensemble.
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E1(experiments.ClassifyOptions{Seed: 42})
	}
	reportCell(b, rep, "learning-only", "prec_learning", 1)
	reportCell(b, rep, "rules+learning", "prec_combined", 1)
	reportCell(b, rep, "rules+learning", "recall_combined", 2)
	reportShape(b, rep)
}

// BenchmarkE2_SynonymTool regenerates Table 1 and the §5.1 evaluation
// (25 patterns, synonyms found, iterations).
func BenchmarkE2_SynonymTool(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E2(experiments.SynonymOptions{Seed: 42, CorpusSize: 8000})
	}
	withSyn := 0
	totalSyn := 0
	for _, row := range rep.Rows {
		if n, err := strconv.Atoi(row[2]); err == nil {
			totalSyn += n
			if n > 0 {
				withSyn++
			}
		}
	}
	b.ReportMetric(float64(withSyn), "patterns_with_synonyms")
	b.ReportMetric(float64(totalSyn)/float64(len(rep.Rows)), "mean_synonyms")
	reportShape(b, rep)
}

// BenchmarkE3_RuleGeneration regenerates the §5.2 numbers: mined candidates,
// high/low selection, precision of each set, decline reduction.
func BenchmarkE3_RuleGeneration(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E3(experiments.RuleGenOptions{
			Seed: 42, NumTypes: 60, TrainSize: 5000, TestSize: 2000, MinSupport: 0.03,
		})
	}
	reportCell(b, rep, "mined candidate rules", "candidates", 1)
	reportCell(b, rep, "selected high-confidence rules", "high_rules", 1)
	reportCell(b, rep, "precision of high-confidence set", "prec_high", 1)
	reportShape(b, rep)
}

// BenchmarkE4_RuleExecution regenerates the §4/§5.3 execution comparison
// (naive vs indexed vs parallel over a 20k-rule-class rulebase).
func BenchmarkE4_RuleExecution(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E4(experiments.ExecOptions{
			Seed: 42, NumTypes: 80, RuleCount: 8000, ItemCount: 800,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE5_OrderIndependence regenerates the §4 property check.
func BenchmarkE5_OrderIndependence(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E5(experiments.ExecOptions{Seed: 42})
	}
	reportShape(b, rep)
}

// BenchmarkE6_RuleEvalMethods regenerates the §4 evaluation-method
// comparison (coverage vs crowd cost, overlap sharing).
func BenchmarkE6_RuleEvalMethods(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E6(experiments.EvalOptions{
			Seed: 42, NumTypes: 60, CorpusSize: 3000, Validation: 500, SamplePerRule: 10,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE7_IE regenerates the §6 IE comparison.
func BenchmarkE7_IE(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E7(experiments.SisterOptions{Seed: 42, NumTypes: 60, TrainSize: 4000, TestSize: 1500})
	}
	reportCell(b, rep, "dictionary rule", "dict_precision", 2)
	reportCell(b, rep, "learned tagger", "learned_precision", 2)
	reportShape(b, rep)
}

// BenchmarkE8_EM regenerates the §6 EM numbers.
func BenchmarkE8_EM(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E8(experiments.SisterOptions{Seed: 42, NumTypes: 60})
	}
	reportCell(b, rep, "precision", "precision", 1)
	reportCell(b, rep, "recall", "recall", 1)
	reportShape(b, rep)
}

// BenchmarkE9_KBCuration regenerates the §6 KB curation-replay numbers.
func BenchmarkE9_KBCuration(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E9(experiments.SisterOptions{Seed: 42})
	}
	reportShape(b, rep)
}

// BenchmarkE10_DriftAndScaleDown regenerates the §2.2/§6 ongoing-operation
// drill (drift → detect → scale down → repair).
func BenchmarkE10_DriftAndScaleDown(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E10(experiments.ClassifyOptions{
			Seed: 42, NumTypes: 100, TrainSize: 6000, TestSize: 2500,
		})
	}
	reportShape(b, rep)
}

// BenchmarkE11_Maintenance regenerates the §4 maintenance analyses over a
// large rulebase.
func BenchmarkE11_Maintenance(b *testing.B) {
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = experiments.E11(experiments.ExecOptions{Seed: 42, NumTypes: 80, RuleCount: 6000})
	}
	reportCell(b, rep, "subsumed pairs", "subsumed", 1)
	reportCell(b, rep, "significant overlaps", "overlaps", 1)
	reportShape(b, rep)
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the hot paths
// ---------------------------------------------------------------------------

func benchItems(n int) []*catalog.Item {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 80})
	return cat.GenerateBatch(catalog.BatchSpec{Size: n, Epoch: 0})
}

func BenchmarkPatternMatch(b *testing.B) {
	p := pattern.MustParse("(motor | engine | auto(motive)? | car | truck) (oil | lubricant)s?")
	tokens := tokenize.Tokenize("castrol gtx high mileage motor oil 5 qt synthetic blend")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.Match(tokens) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkPatternParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pattern.Parse("(abrasive|sand(er|ing))[ -](wheels?|discs?)"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRules(b *testing.B) []*core.Rule {
	b.Helper()
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 80})
	rb := core.NewRulebase()
	for _, ty := range cat.Types() {
		for _, h := range ty.HeadTerms {
			if r, err := core.NewWhitelist(h.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
		for _, s := range ty.Synonyms {
			if r, err := core.NewWhitelist(s.Text, ty.Name); err == nil {
				_, _ = rb.Add(r, "bench")
			}
		}
	}
	return rb.Active()
}

func BenchmarkRuleIndexBuild(b *testing.B) {
	rules := benchRules(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewRuleIndex(rules)
	}
}

func BenchmarkRuleIndexLookup(b *testing.B) {
	rules := benchRules(b)
	idx := core.NewRuleIndex(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.CandidatesFor(items[i%len(items)])
	}
}

func BenchmarkIndexedExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewIndexedExecutor(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

// BenchmarkIndexedExecutorApplyWorld times Apply at the benchmark world's
// shape — 10,000 addBenchRules rules over a 250-type catalog — cycling over 16
// items (the rules and items the kernel reads stay in cache) and over 32,768
// (the benchmark's item pool: most of what each item reads is cold). The gap
// between the two is what the kernel spends waiting on memory.
func BenchmarkIndexedExecutorApplyWorld(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	rb := core.NewRulebase()
	addBenchRules(b, cat, rb, 10000)
	ex := core.NewIndexedExecutor(rb.Active())
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 32768, Epoch: 1})
	for _, it := range items {
		it.TitleTokens()
	}
	for _, n := range []int{16, len(items)} {
		b.Run("items="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex.Apply(items[i%n])
			}
		})
	}
}

// BenchmarkInstrumentedExecutorApply measures the kernel with telemetry on against
// BenchmarkIndexedExecutorApply on the same rulebase and items; the ratio of
// the two ns/op figures is the observability overhead (budget: <5%).
func BenchmarkInstrumentedExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewInstrumentedExecutor(rules, obs.NewRegistry())
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

func BenchmarkSequentialExecutorApply(b *testing.B) {
	rules := benchRules(b)
	ex := core.NewSequentialExecutor(rules)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Apply(items[i%len(items)])
	}
}

// benchRulebase returns a rulebase of n rules built from an 80-type
// catalog's vocabulary (see addBenchRules) and their IDs.
func benchRulebase(b *testing.B, n int) (*core.Rulebase, []string) {
	b.Helper()
	rb := core.NewRulebase()
	return rb, addBenchRules(b, catalog.New(catalog.Config{Seed: 7, NumTypes: 80}), rb, n)
}

// addBenchRules adds n rules built from cat's vocabulary to rb and returns
// their IDs: every type's head terms and synonyms as whitelists, then
// head-anchored variants (<qualifier>.*<head>) and brand rules until n.
func addBenchRules(b *testing.B, cat *catalog.Catalog, rb *core.Rulebase, n int) []string {
	b.Helper()
	var ids []string
	add := func(r *core.Rule, err error) {
		if err != nil || len(ids) >= n {
			return
		}
		id, err := rb.Add(r, "bench")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	types := cat.Types()
	for _, ty := range types {
		for _, h := range ty.HeadTerms {
			add(core.NewWhitelist(h.Text, ty.Name))
		}
		for _, s := range ty.Synonyms {
			add(core.NewWhitelist(s.Text, ty.Name))
		}
	}
	for i := 0; len(ids) < n; i++ {
		ty, other := types[i%len(types)], types[(i/len(types))%len(types)]
		if i%10 == 9 {
			add(core.NewAttrValue("Brand", "brand"+strconv.Itoa(i), []string{ty.Name}))
			continue
		}
		add(core.NewWhitelist(strings.Fields(other.Name)[0]+strconv.Itoa(i/len(types))+".*"+ty.HeadTerms[0].Text, ty.Name))
	}
	return ids
}

// BenchmarkEngineRebuild measures what an analyst's mutation costs before it
// is served: the mutation plus the synchronous Acquire that publishes the
// snapshot at its version, on a 10,000-rule rulebase. Disable and
// UpdateConfidence keep every rule the snapshot indexes (Disable alternates
// disabling and re-enabling one of 64 rules); Add brings a rule the index has
// never seen.
func BenchmarkEngineRebuild(b *testing.B) {
	const rules = 10000
	mutations := map[string]func(rb *core.Rulebase, ids []string, i int) error{
		"Disable": func(rb *core.Rulebase, ids []string, i int) error {
			id := ids[(i/2)%64]
			if i%2 == 0 {
				return rb.Disable(id, "bench", "")
			}
			return rb.Enable(id, "bench", "")
		},
		"UpdateConfidence": func(rb *core.Rulebase, ids []string, i int) error {
			return rb.UpdateConfidence(ids[i%len(ids)], 0.5+float64(i%50)/100, "bench")
		},
		"Add": func(rb *core.Rulebase, ids []string, i int) error {
			r, err := core.NewWhitelist("benchadd"+strconv.Itoa(i)+" widgets?", "widgets")
			if err != nil {
				return err
			}
			_, err = rb.Add(r, "bench")
			return err
		},
	}
	for _, name := range []string{"Disable", "UpdateConfidence", "Add"} {
		mutate := mutations[name]
		b.Run(name, func(b *testing.B) {
			rb, ids := benchRulebase(b, rules)
			eng := serve.NewEngine(rb, serve.EngineOptions{Obs: obs.NewRegistry()})
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mutate(rb, ids, i); err != nil {
					b.Fatal(err)
				}
				if eng.Acquire().Version() != rb.Version() {
					b.Fatal("Acquire did not catch up")
				}
			}
		})
	}
}

// worldRules returns the 10,000 rules addBenchRules draws from the
// benchmark world's 250-type catalog, as fresh clones with no ID or clock
// stamps, ready for Add.
func worldRules(b *testing.B) []*core.Rule {
	b.Helper()
	rb := core.NewRulebase()
	addBenchRules(b, catalog.New(catalog.Config{Seed: 7, NumTypes: 250}), rb, 10000)
	rules := rb.All()
	for i, r := range rules {
		c := r.Clone()
		c.ID, c.Author, c.CreatedAt, c.UpdatedAt = "", "", 0, 0
		rules[i] = c
	}
	return rules
}

// durableWorld returns a rulebase holding worldRules with a store attached
// under a fresh directory, auto-compaction off, and the rule IDs.
func durableWorld(b *testing.B) (*core.Rulebase, *persist.Store, []string) {
	b.Helper()
	st, err := persist.Open(persist.Options{Dir: b.TempDir(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = st.Close() })
	rb := core.NewRulebase()
	if err := st.Attach(rb); err != nil {
		b.Fatal(err)
	}
	var ids []string
	for _, r := range worldRules(b) {
		id, err := rb.Add(r, "bench")
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	return rb, st, ids
}

// BenchmarkStoreSnapshot times one compaction of the 10,000-rule world: the
// rulebase marshaled, written, renamed over the last snapshot, and the WAL
// reset (no fsync). It uses only public API, so it also runs copied into a
// parent checkout.
func BenchmarkStoreSnapshot(b *testing.B) {
	_, st, _ := durableWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend times one mutation with a store attached to the
// 10,000-rule world and auto-compaction off, so each op is the mutation plus
// its WAL record (no fsync): Add carries the whole rule in its record,
// UpdateConfidence only the new value.
func BenchmarkWALAppend(b *testing.B) {
	b.Run("Add", func(b *testing.B) {
		rb, _, _ := durableWorld(b)
		rules := make([]*core.Rule, b.N)
		for i := range rules {
			r, err := core.NewWhitelist("benchadd"+strconv.Itoa(i)+" widgets?", "widgets")
			if err != nil {
				b.Fatal(err)
			}
			rules[i] = r
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, r := range rules {
			if _, err := rb.Add(r, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("UpdateConfidence", func(b *testing.B) {
		rb, _, ids := durableWorld(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rb.UpdateConfidence(ids[i%len(ids)], 0.5+float64(i%50)/100, "bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDurableBulkLoad times the durable set-up of the benchmark world:
// 10,000 Adds into a fresh rulebase with a store attached and the default
// auto-compaction (every 1,024 appends). max_add_ms is the longest single
// Add, an append that also compacted: the stall every mutator waits out.
func BenchmarkDurableBulkLoad(b *testing.B) {
	rules := worldRules(b)
	var longest time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := persist.Open(persist.Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		rb := core.NewRulebase()
		if err := st.Attach(rb); err != nil {
			b.Fatal(err)
		}
		fresh := make([]*core.Rule, len(rules))
		for j, r := range rules {
			fresh[j] = r.Clone()
		}
		b.StartTimer()
		for _, r := range fresh {
			start := time.Now()
			if _, err := rb.Add(r, "bench"); err != nil {
				b.Fatal(err)
			}
			longest = max(longest, time.Since(start))
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(longest.Microseconds())/1e3, "max_add_ms")
}

func BenchmarkFrequentSequences(b *testing.B) {
	items := benchItems(400)
	titles := make([][]string, len(items))
	for i, it := range items {
		titles[i] = tokenize.NormalizeTokens(it.TitleTokens())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.FrequentSequences(titles, 0.05, 2, 4)
	}
}

func BenchmarkSynonymToolBuild(b *testing.B) {
	items := benchItems(4000)
	titles := make([][]string, len(items))
	for i, it := range items {
		titles[i] = it.TitleTokens()
	}
	p := pattern.MustParse(`(area | \syn) rugs?`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synonym.NewTool(p, titles, synonym.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// learnBenchTrain is the training set every ensemble micro-benchmark shares.
func learnBenchTrain() []*catalog.Item {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 60})
	return cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 0})
}

// benchPredict times c.Predict over 256 items c was not trained on.
func benchPredict(b *testing.B, c learn.Classifier) {
	c.Train(learnBenchTrain())
	items := benchItems(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Predict(items[i%len(items)])
	}
}

func BenchmarkNaiveBayesPredict(b *testing.B) { benchPredict(b, learn.NewNaiveBayes()) }

func BenchmarkKNNPredict(b *testing.B) { benchPredict(b, learn.NewKNN(5)) }

func BenchmarkPerceptronPredict(b *testing.B) { benchPredict(b, learn.NewPerceptron(3)) }

// BenchmarkEnsemblePredict is the pipeline's ensemble: NB, kNN(5),
// perceptron(3) under equal weights.
func BenchmarkEnsemblePredict(b *testing.B) {
	ens, err := learn.NewEnsemble([]learn.Classifier{
		learn.NewNaiveBayes(), learn.NewKNN(5), learn.NewPerceptron(3),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchPredict(b, ens)
}

// BenchmarkEnsemblePredictWorld times the pipeline's ensemble, and each of
// its members through Members(), at the benchmark world's shape: 250 types
// and 2,000 training items. Naive Bayes and the perceptron score every
// class, so the 60-type fixture above understates their cost about 4x.
func BenchmarkEnsemblePredictWorld(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	ens, err := learn.NewEnsemble([]learn.Classifier{
		learn.NewNaiveBayes(), learn.NewKNN(5), learn.NewPerceptron(3),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ens.Train(cat.LabeledData(2000))
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 256, Epoch: 1})
	for _, c := range append(append([]learn.Classifier{}, ens.Members()...), ens) {
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Predict(items[i%len(items)])
			}
		})
	}
}

// BenchmarkDecisionCacheHit times one decision-cache hit on the per-item
// path the serving tier's handler takes (Classify goes through the same
// cache lookup), at the benchmark world's shape: 250 types, 2,000 training
// items and a whitelist per head term. "hit" serves warm entries with default
// audit sampling; "uncached" classifies the same items through every stage.
func BenchmarkDecisionCacheHit(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	train := cat.LabeledData(2000)
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 256, Epoch: 1})
	for _, tc := range []struct {
		name  string
		cache int
	}{{"hit", 4096}, {"uncached", 0}} {
		p := chimera.New(chimera.Config{Seed: 7, CacheCapacity: tc.cache, Obs: obs.NewRegistry()})
		for _, ty := range cat.Types() {
			r, err := core.NewWhitelist(ty.HeadTerms[0].Text, ty.Name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Rules.Add(r, "bench"); err != nil {
				b.Fatal(err)
			}
		}
		p.Train(train)
		for _, it := range items {
			p.Classify(it)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Classify(items[i%len(items)])
			}
		})
	}
}

// BenchmarkProcessBatchWorld times Pipeline.ProcessBatch on 128-item batches
// at the benchmark world's shape: 250 types, 2,000 training items and 10,000
// rules, with 1 and 2 workers and the default audit sampling. ns/op and B/op
// are per batch.
func BenchmarkProcessBatchWorld(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 250})
	train := cat.LabeledData(2000)
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 1024, Epoch: 1})
	const batch = 128
	for _, workers := range []int{1, 2} {
		p := chimera.New(chimera.Config{Seed: 7, Workers: workers, Obs: obs.NewRegistry()})
		addBenchRules(b, cat, p.Rules, 10000)
		p.Train(train)
		p.ProcessBatch(items[:batch])
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := i * batch % len(items)
				p.ProcessBatch(items[lo : lo+batch])
			}
		})
		p.Close()
	}
}

func BenchmarkDevSessionTry(b *testing.B) {
	dev := core.NewDevSession(benchItems(4000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Try("(motor | engine) oils?", "motor oil"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardedRuleMatch(b *testing.B) {
	r, err := core.NewBlacklist("apple", "smart phones")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.WithGuards(core.Guard{Attr: "Price", Op: "<", Value: "100"}); err != nil {
		b.Fatal(err)
	}
	it := &catalog.Item{ID: "x", Attrs: map[string]string{"Title": "apple branded case deluxe", "Price": "12.99"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Matches(it) {
			b.Fatal("must match")
		}
	}
}

func BenchmarkEMMatchCorpus(b *testing.B) {
	items := benchItems(1500)
	rs := &em.RuleSet{Rules: []*em.Rule{
		em.NewRule("title", em.QGramJaccard("Title", 3, 0.8)),
		em.NewRule("brand-title", em.AttrEquals("Brand Name"), em.TokenJaccard("Title", 0.6)),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.MatchCorpus(rs, items, 2, 4)
	}
}

func BenchmarkCatalogGenerate(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 120})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.GenerateBatch(catalog.BatchSpec{Size: 100, Epoch: 1})
	}
}
