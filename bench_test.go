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
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/experiments"
	"repro/internal/learn"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/pattern"
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

func BenchmarkNaiveBayesPredict(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 60})
	train := cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 0})
	nb := learn.NewNaiveBayes()
	nb.Train(train)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb.Predict(items[i%len(items)])
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	cat := catalog.New(catalog.Config{Seed: 7, NumTypes: 60})
	train := cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 0})
	knn := learn.NewKNN(5)
	knn.Train(train)
	items := benchItems(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knn.Predict(items[i%len(items)])
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
