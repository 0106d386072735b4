package chimera

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// fixture builds a catalog, a trained pipeline with a starter rulebase, and
// a test batch.
func fixture(t *testing.T, seed uint64) (*catalog.Catalog, *Pipeline) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
	p := New(Config{Seed: seed})
	p.Train(cat.LabeledData(4000))
	addFixtureRules(t, p)
	return cat, p
}

// addFixtureRules adds fixture's starter rulebase to p.
func addFixtureRules(t *testing.T, p *Pipeline) {
	t.Helper()
	add := func(r *core.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	add(core.NewWhitelist("rings?", "rings"))
	add(core.NewWhitelist("(wedding | diamond) band", "rings"))
	add(core.NewWhitelist("jeans?", "jeans"))
	add(core.NewWhitelist("(area | oriental | braided | shag | tufted) rugs?", "area rugs"))
	add(core.NewWhitelist("(motor | engine) oils?", "motor oil"))
	add(core.NewBlacklist("olive oils?", "motor oil"))
	add(core.NewAttrExists("isbn", "books"))
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
}

func TestClassifyGateKeeper(t *testing.T) {
	_, p := fixture(t, 71)
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{"Title": "quilted leather satchel mini"}})
	if d.Declined || d.Type != "handbags" || d.Reason != "gatekeeper" {
		t.Fatalf("gate keeper should classify immediately: %+v", d)
	}
	if d.Confidence != 1 {
		t.Fatalf("gate decisions are certain: %v", d.Confidence)
	}
}

func TestClassifyRulesBeatLearners(t *testing.T) {
	_, p := fixture(t, 72)
	// "wedding band" has no 'ring' token; the rule should still classify it.
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{"Title": "platinaire wedding band size 7"}})
	if d.Declined || d.Type != "rings" {
		t.Fatalf("trap title should be caught by rule: %+v", d)
	}
	if len(d.Evidence) == 0 {
		t.Fatal("rule-backed decision should carry evidence")
	}
}

func TestClassifyBlacklistVeto(t *testing.T) {
	_, p := fixture(t, 73)
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{"Title": "oliveto extra virgin olive oil 500 ml"}})
	if !d.Declined && d.Type == "motor oil" {
		t.Fatalf("blacklist should veto motor oil: %+v", d)
	}
}

func TestClassifyAttrRule(t *testing.T) {
	_, p := fixture(t, 74)
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{
		"Title": "The Quiet Meadow large print",
		"isbn":  "9781111111111",
	}})
	if d.Declined || d.Type != "books" {
		t.Fatalf("isbn attr rule should classify books: %+v", d)
	}
}

func TestClassifyDeclinesUnknown(t *testing.T) {
	_, p := fixture(t, 75)
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{"Title": "zzkqv wfrbb pltnn"}})
	if !d.Declined {
		t.Fatalf("gibberish should be declined: %+v", d)
	}
}

func TestProcessBatchMeetsGateWithRules(t *testing.T) {
	cat, p := fixture(t, 76)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 2000, Epoch: 0})
	res := p.ProcessBatch(batch)
	if len(res.Decisions) != len(batch) {
		t.Fatal("missing decisions")
	}
	prec, rec := res.TruePrecisionRecall()
	if prec < 0.85 {
		t.Fatalf("true precision too low: %v", prec)
	}
	if rec < 0.4 {
		t.Fatalf("recall too low: %v", rec)
	}
	if res.DeclineRate() == 0 {
		t.Fatal("some items should be declined (tail types, gibberish)")
	}
	if p.ManualQueue() == 0 {
		t.Fatal("declined items should hit the manual queue")
	}
}

func TestEvaluateAndImproveLoop(t *testing.T) {
	cat, p := fixture(t, 77)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 1500, Epoch: 0})
	res := p.ProcessBatch(batch)
	rep, err := p.EvaluateAndImprove(res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SampleSize == 0 {
		t.Fatal("no sample evaluated")
	}
	if rep.EstPrecision <= 0 || rep.EstPrecision > 1 {
		t.Fatalf("implausible precision estimate %v", rep.EstPrecision)
	}
	if res.EstPrecision != rep.EstPrecision {
		t.Fatal("batch result not annotated")
	}
	if len(p.PrecisionHistory()) != 1 {
		t.Fatal("history not recorded")
	}
	// Crowd-estimated precision should be within a few points of truth.
	truth, _ := res.TruePrecisionRecall()
	if diff := rep.EstPrecision - truth; diff > 0.12 || diff < -0.12 {
		t.Fatalf("estimate %v too far from truth %v", rep.EstPrecision, truth)
	}
}

func TestAnalystPatchImprovesPrecisionOnErrorPattern(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 78, NumTypes: 40})
	p := New(Config{Seed: 78, MinPatternSupport: 3, SampleSize: 400})
	p.Train(cat.LabeledData(3000))
	// A deliberately bad analyst rule: "oil" → motor oil misfires on olive
	// oil titles.
	bad, err := core.NewWhitelist("oils?", "motor oil")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(bad, "ana"); err != nil {
		t.Fatal(err)
	}
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 1200, Epoch: 0, OnlyTypes: []string{"motor oil", "olive oil"}})
	res := p.ProcessBatch(batch)
	precBefore, _ := res.TruePrecisionRecall()
	rep, err := p.EvaluateAndImprove(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NewRuleIDs) == 0 {
		t.Fatalf("analyst should have written a patch rule (flagged=%d)", rep.Flagged)
	}
	// The patch should mention a grocery token and target motor oil.
	patch := p.Rules.Get(rep.NewRuleIDs[0])
	if patch.Kind != core.Blacklist || patch.TargetType != "motor oil" {
		t.Fatalf("unexpected patch rule: %s", patch)
	}
	res2 := p.ProcessBatch(batch)
	precAfter, _ := res2.TruePrecisionRecall()
	if precAfter <= precBefore {
		t.Fatalf("patch did not help: %v → %v", precBefore, precAfter)
	}
}

func TestScaleDownAndRestore(t *testing.T) {
	cat, p := fixture(t, 79)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 600, Epoch: 0, OnlyTypes: []string{"rings"}})

	before := p.ProcessBatch(batch)
	classifiedBefore := len(before.Classified())
	if classifiedBefore == 0 {
		t.Fatal("precondition: rings should classify")
	}

	tok, err := p.ScaleDownType("rings", "ana", "rings degraded")
	if err != nil {
		t.Fatal(err)
	}
	during := p.ProcessBatch(batch)
	for _, d := range during.Classified() {
		if d.Type == "rings" {
			t.Fatalf("scaled-down type still predicted: %+v", d)
		}
	}
	if during.DeclineRate() <= before.DeclineRate() {
		t.Fatal("scale-down should route items to manual")
	}
	// Filter reasons must name the filter rule.
	foundFiltered := false
	for _, d := range during.Decisions {
		if d.Declined && strings.HasPrefix(d.Reason, "filtered:rings") {
			foundFiltered = true
		}
	}
	if !foundFiltered {
		t.Fatal("no filtered decline reasons recorded")
	}

	if err := p.Restore(tok, "dev"); err != nil {
		t.Fatal(err)
	}
	after := p.ProcessBatch(batch)
	if len(after.Classified()) < classifiedBefore*9/10 {
		t.Fatalf("restore incomplete: %d vs %d", len(after.Classified()), classifiedBefore)
	}
}

// TestScaleDownIsOneCommit: a scale-down and its restore are one changeset
// each — the version moves by 1, a subscriber gets one delivery and the
// attached store appends one WAL frame — and a rule retired between the two
// is left out of the restore.
func TestScaleDownIsOneCommit(t *testing.T) {
	p := New(Config{Seed: 81})
	addFixtureRules(t, p)
	extra, err := core.NewWhitelist("signet rings?", "rings")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(extra, "ana"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := persist.Open(persist.Options{Dir: t.TempDir(), SnapshotEvery: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Attach(p.Rules); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	cancel, _ := p.Rules.SubscribeChanges(func(core.Change) { delivered++ })
	defer cancel()
	commit := func(what string, run func() error) {
		t.Helper()
		v, n, frames := p.Rules.Version(), delivered, reg.Counter(persist.MetricWALAppends).Value()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := p.Rules.Version(); got != v+1 {
			t.Fatalf("%s: version %d -> %d, want +1", what, v, got)
		}
		if delivered != n+1 {
			t.Fatalf("%s: %d deliveries, want 1", what, delivered-n)
		}
		if got := reg.Counter(persist.MetricWALAppends).Value(); got != frames+1 {
			t.Fatalf("%s: %d WAL frames, want 1", what, got-frames)
		}
	}

	var tok *RestoreToken
	commit("scale-down", func() (err error) {
		tok, err = p.ScaleDownType("rings", "ana", "drill")
		return err
	})
	if len(tok.DisabledIDs) != 3 {
		t.Fatalf("scale-down disabled %v, want the 3 rings rules", tok.DisabledIDs)
	}
	if err := p.Rules.Retire(tok.DisabledIDs[0], "ana", "bad rule"); err != nil {
		t.Fatal(err)
	}
	commit("restore", func() error { return p.Restore(tok, "dev") })
	if p.Rules.Get(tok.FilterID).Status != core.Retired || p.Rules.Get(tok.DisabledIDs[0]).Status != core.Retired {
		t.Fatal("restore must retire the filter and leave the retired rule retired")
	}
	for _, id := range tok.DisabledIDs[1:] {
		if p.Rules.Get(id).Status != core.Active {
			t.Fatalf("rule %s not restored", id)
		}
	}
	if err := st.Broken(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreNilToken(t *testing.T) {
	_, p := fixture(t, 80)
	if err := p.Restore(nil, "dev"); err == nil {
		t.Fatal("nil token should error")
	}
}

func TestDegradedTypes(t *testing.T) {
	flagged := []Decision{
		{Type: "rings"}, {Type: "rings"}, {Type: "rings"},
		{Type: "jeans"},
	}
	got := DegradedTypes(flagged, 3)
	if len(got) != 1 || got[0] != "rings" {
		t.Fatalf("degraded = %v", got)
	}
}

func TestImpactTrackerFedByBatches(t *testing.T) {
	cat, p := fixture(t, 81)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 2500, Epoch: 0})
	p.ProcessBatch(batch)
	// Some rule should have accumulated touches.
	total := 0
	for _, r := range p.Rules.Active() {
		total += p.Tracker.Touches(r.ID)
	}
	if total == 0 {
		t.Fatal("impact tracker saw no touches")
	}
}

func TestDescribe(t *testing.T) {
	_, p := fixture(t, 82)
	s := p.Describe()
	if !strings.Contains(s, "rules=8") || !strings.Contains(s, "training=") {
		t.Fatalf("describe output: %s", s)
	}
}

func TestFlaggedFromAndTruth(t *testing.T) {
	it := &catalog.Item{ID: "1", TrueType: "rings", Attrs: map[string]string{"Title": "x"}}
	res := &BatchResult{Decisions: []Decision{
		{Item: it, Type: "rings"},
		{Item: it, Type: "jeans"},
		{Item: it, Declined: true},
	}}
	flagged := FlaggedFrom(res, CorrectByGroundTruth)
	if len(flagged) != 1 || flagged[0].Type != "jeans" {
		t.Fatalf("flagged = %v", flagged)
	}
}

func TestPipelineBitwiseDeterminism(t *testing.T) {
	// Regression for the nondeterminism chain fixed across catalog (attr
	// generation order), learn (feature order, kNN/Dot accumulation order):
	// two identically-seeded pipelines must produce byte-identical decision
	// streams, including confidences.
	run := func() []Decision {
		cat := catalog.New(catalog.Config{Seed: 83, NumTypes: 60, ZipfS: 1.3})
		p := New(Config{Seed: 83, SampleSize: 300})
		p.Train(cat.LabeledData(700))
		r, _ := core.NewWhitelist("rings?", "rings")
		_, _ = p.Rules.Add(r, "ana")
		batch := cat.GenerateBatch(catalog.BatchSpec{Size: 800, Epoch: 2})
		return p.ProcessBatch(batch).Decisions
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Declined != b[i].Declined ||
			a[i].Confidence != b[i].Confidence || a[i].Reason != b[i].Reason {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTypeRestrictAndGuardsInPipeline(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 84, NumTypes: 40})
	p := New(Config{Seed: 84})
	p.Train(cat.LabeledData(2000))

	// Dictionary constraint: computer-ish words → computer types only.
	tr, err := core.NewTypeRestrict("(ssd | motherboard | 8gb)", []string{"laptop computers", "computer monitors", "tablets"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(tr, "ana"); err != nil {
		t.Fatal(err)
	}
	wl, err := core.NewWhitelist("books?", "books")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(wl, "ana"); err != nil {
		t.Fatal(err)
	}

	// A title with both a book-ish word and dictionary evidence: the
	// constraint suppresses the book assertion.
	d := p.Classify(&catalog.Item{ID: "x", Attrs: map[string]string{
		"Title": "programming book bundle with 8gb ssd drive",
	}})
	if !d.Declined && d.Type == "books" {
		t.Fatalf("type-restrict should block the books assertion: %+v", d)
	}

	// Guarded blacklist inside the pipeline.
	bl, err := core.NewBlacklist("luxwatch", "watches")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.WithGuards(core.Guard{Attr: "Price", Op: "<", Value: "20"}); err != nil {
		t.Fatal(err)
	}
	wlw, err := core.NewWhitelist("luxwatch", "watches")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(bl, "ana"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(wlw, "ana"); err != nil {
		t.Fatal(err)
	}
	cheap := p.Classify(&catalog.Item{ID: "y", Attrs: map[string]string{"Title": "luxwatch classic", "Price": "9.99"}})
	if !cheap.Declined && cheap.Type == "watches" {
		t.Fatalf("guarded blacklist should veto the suspiciously cheap watch: %+v", cheap)
	}
	real := p.Classify(&catalog.Item{ID: "z", Attrs: map[string]string{"Title": "luxwatch classic", "Price": "299.00"}})
	if real.Declined || real.Type != "watches" {
		t.Fatalf("genuine watch should classify: %+v", real)
	}
}

func TestOnboardDeclinedScaleUp(t *testing.T) {
	// The §2.2 scale-up drill: a vendor sends items of types the system has
	// never trained on and has no rules for; onboarding must turn the
	// manual team's labels into rules + training data so a re-run of the
	// same kind of batch classifies most of it.
	cat := catalog.New(catalog.Config{Seed: 86, NumTypes: 60})
	p := New(Config{Seed: 86})
	// Train WITHOUT two tail types, then receive a batch of exactly those.
	var train []*catalog.Item
	onboardTypes := map[string]bool{"camping tents": true, "fishing rods": true}
	for _, it := range cat.LabeledData(3000) {
		if !onboardTypes[it.TrueType] {
			train = append(train, it)
		}
	}
	p.Train(train)

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 500, Epoch: 0, OnlyTypes: []string{"camping tents", "fishing rods"}})
	res := p.ProcessBatch(batch)
	declineBefore := res.DeclineRate()
	precBefore, recBefore := res.TruePrecisionRecall()
	_ = precBefore

	rep, err := p.OnboardDeclined(res, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Declined == 0 || rep.Labeled != rep.Declined {
		t.Fatalf("manual team should label every declined item: %+v", rep)
	}
	if len(rep.NewTypes) == 0 {
		t.Fatalf("unknown types should be discovered: %+v", rep)
	}
	if len(rep.NewRuleIDs) == 0 {
		t.Fatalf("onboarding should mine rules: %+v", rep)
	}
	for _, id := range rep.NewRuleIDs {
		if p.Rules.Get(id).Provenance != "onboarding" {
			t.Fatal("provenance missing")
		}
	}

	res2 := p.ProcessBatch(batch)
	_, recAfter := res2.TruePrecisionRecall()
	if res2.DeclineRate() >= declineBefore {
		t.Fatalf("onboarding should cut declines: %.3f → %.3f", declineBefore, res2.DeclineRate())
	}
	if recAfter <= recBefore {
		t.Fatalf("onboarding should raise recall: %.3f → %.3f", recBefore, recAfter)
	}
}

func TestOnboardDeclinedNothingDeclined(t *testing.T) {
	_, p := fixture(t, 87)
	res := &BatchResult{Decisions: []Decision{{Type: "rings", Item: &catalog.Item{ID: "1", Attrs: map[string]string{"Title": "x"}}}}}
	rep, err := p.OnboardDeclined(res, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Declined != 0 || len(rep.NewRuleIDs) != 0 {
		t.Fatalf("nothing to onboard: %+v", rep)
	}
}

func TestConcurrentProcessBatches(t *testing.T) {
	cat, p := fixture(t, 85)
	batches := make([][]*catalog.Item, 4)
	for i := range batches {
		batches[i] = cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 0})
	}
	done := make(chan *BatchResult, len(batches))
	for _, b := range batches {
		go func(items []*catalog.Item) { done <- p.ProcessBatch(items) }(b)
	}
	for range batches {
		res := <-done
		if len(res.Decisions) != 300 {
			t.Fatalf("concurrent batch lost decisions: %d", len(res.Decisions))
		}
	}
	if p.ManualQueue() < 0 {
		t.Fatal("ledger corrupted")
	}
}

func TestRecallImprovesOverRounds(t *testing.T) {
	// The paper's operating curve: precision stays above the gate while
	// recall climbs as analysts add rules and training data.
	// Scarce training data and drifted test vocabulary: the §2.2 starting
	// point ("tolerate lower recall... increase recall over time").
	cat := catalog.New(catalog.Config{Seed: 83, NumTypes: 60, ZipfS: 1.3})
	p := New(Config{Seed: 83, SampleSize: 300})
	p.Train(cat.LabeledData(700))

	// Start with a minimal rulebase.
	r, _ := core.NewWhitelist("rings?", "rings")
	_, _ = p.Rules.Add(r, "ana")

	var recalls []float64
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 1500, Epoch: 2})
	for round := 0; round < 3; round++ {
		res := p.ProcessBatch(batch)
		_, rec := res.TruePrecisionRecall()
		recalls = append(recalls, rec)
		if _, err := p.EvaluateAndImprove(res); err != nil {
			t.Fatal(err)
		}
		// Analysts also add a couple of whitelist rules per round (simulated
		// by rules for declined head types).
		declinedTypes := map[string]int{}
		for _, d := range res.Decisions {
			if d.Declined {
				declinedTypes[d.Item.TrueType]++ // simulation shortcut for "manual team labels them"
			}
		}
		for ty, n := range declinedTypes {
			if n < 20 {
				continue
			}
			spec := cat.TypeByName(ty)
			if spec == nil || len(spec.HeadTerms) == 0 {
				continue
			}
			nr, err := core.NewWhitelist(spec.HeadTerms[0].Text, ty)
			if err == nil {
				_, _ = p.Rules.Add(nr, "ana")
			}
		}
	}
	if recalls[len(recalls)-1] <= recalls[0] {
		t.Fatalf("recall did not improve across rounds: %v", recalls)
	}
}

// telemetryFixture is fixture with a private metric registry, so assertions
// are not polluted by other tests sharing obs.Default().
func telemetryFixture(t *testing.T, seed uint64) (*catalog.Catalog, *Pipeline) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
	p := New(Config{Seed: seed, Obs: obs.NewRegistry()})
	p.Train(cat.LabeledData(4000))
	add := func(r *core.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	add(core.NewWhitelist("rings?", "rings"))
	add(core.NewWhitelist("jeans?", "jeans"))
	add(core.NewWhitelist("(motor | engine) oils?", "motor oil"))
	add(core.NewBlacklist("olive oils?", "motor oil"))
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
	return cat, p
}

func TestProcessBatchProfileAndMetrics(t *testing.T) {
	cat, p := telemetryFixture(t, 91)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 400, Epoch: 0})
	res := p.ProcessBatch(batch)

	prof := res.Profile
	if prof == nil {
		t.Fatal("ProcessBatch must attach a profile")
	}
	if prof.Items != 400 || prof.Duration <= 0 || prof.ItemsPerSec <= 0 {
		t.Fatalf("profile basics wrong: %+v", prof)
	}
	total := 0
	for _, n := range prof.Stages {
		total += n
	}
	if total != prof.Items {
		t.Fatalf("stage counts sum to %d, want %d (%v)", total, prof.Items, prof.Stages)
	}
	if prof.DeclineRate != res.DeclineRate() {
		t.Fatalf("profile decline rate %v != result %v", prof.DeclineRate, res.DeclineRate())
	}
	if prof.QueueDepth != p.ManualQueue() {
		t.Fatalf("queue depth %d != manual queue %d", prof.QueueDepth, p.ManualQueue())
	}

	// Registry series agree with the profile.
	if got := p.Obs.Counter(MetricItems).Value(); got != 400 {
		t.Fatalf("items counter = %d", got)
	}
	if got := p.Obs.Counter(MetricDeclined).Value(); got != int64(prof.Declined) {
		t.Fatalf("declined counter = %d, want %d", got, prof.Declined)
	}
	if got := p.Obs.Histogram(MetricClassifySecs, nil).Count(); got != 400 {
		t.Fatalf("classify latency observations = %d", got)
	}
	if got := p.Obs.Gauge(MetricQueueDepth).Value(); got != float64(prof.QueueDepth) {
		t.Fatalf("queue gauge = %v", got)
	}
	var stageSum int64
	for _, c := range p.Obs.Snapshot().Counters {
		if c.Name == MetricDecisions {
			stageSum += c.Value
		}
	}
	if stageSum != 400 {
		t.Fatalf("decision stage counters sum to %d", stageSum)
	}

	// Executor-level series exist for both stages.
	if p.Obs.Counter(core.MetricExecApplies, "exec", "gate").Value() != 400 {
		t.Fatal("gate executor applies not recorded")
	}
	// The rule stage only sees items the gate keeper passed on.
	ruleApplies := p.Obs.Counter(core.MetricExecApplies, "exec", "rules").Value()
	if ruleApplies <= 0 || ruleApplies > 400 {
		t.Fatalf("rule executor applies = %d", ruleApplies)
	}

	// The batch left a span tree: batch-0 → prepare/classify/accounting.
	roots := p.Trace.Roots()
	if len(roots) != 1 || roots[0].Name() != "batch-0" {
		t.Fatalf("trace roots = %v", roots)
	}
	names := map[string]bool{}
	for _, c := range roots[0].Children() {
		names[c.Name()] = true
	}
	for _, want := range []string{"prepare", "classify", "accounting"} {
		if !names[want] {
			t.Fatalf("missing %q span in %v", want, names)
		}
	}
	if out := p.Trace.Render(); !strings.Contains(out, "classify") {
		t.Fatalf("render missing classify:\n%s", out)
	}
}

func TestEvaluateAndImproveMetrics(t *testing.T) {
	cat, p := telemetryFixture(t, 92)
	res := p.ProcessBatch(cat.GenerateBatch(catalog.BatchSpec{Size: 500, Epoch: 0}))
	rep, err := p.EvaluateAndImprove(res)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Obs.Counter(MetricCrowdSampled).Value(); got != int64(rep.SampleSize) {
		t.Fatalf("crowd sampled counter = %d, want %d", got, rep.SampleSize)
	}
	if got := p.Obs.Counter(MetricFlagged).Value(); got != int64(rep.Flagged) {
		t.Fatalf("flagged counter = %d, want %d", got, rep.Flagged)
	}
	if got := p.Obs.Gauge(MetricEstPrecision).Value(); got != rep.EstPrecision {
		t.Fatalf("precision gauge = %v, want %v", got, rep.EstPrecision)
	}
	// Rulebase mutations (seed adds + any patch rules) were counted.
	if got := p.Obs.Counter(core.MetricRulebaseMutations, "action", "add").Value(); got < 5 {
		t.Fatalf("rulebase add counter = %d, want >= 5 seed rules", got)
	}
}

func TestPipelineRuleHealthFeedsMaintenance(t *testing.T) {
	cat, p := telemetryFixture(t, 93)
	// A rule that can never fire on this catalog.
	dead, err := core.NewWhitelist("unobtainium widgets?", "widgets")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(dead, "ana"); err != nil {
		t.Fatal(err)
	}
	if p.RuleHealth(0) != nil {
		t.Fatal("health must be nil before any batch")
	}
	p.ProcessBatch(cat.GenerateBatch(catalog.BatchSpec{Size: 600, Epoch: 0}))

	health := p.RuleHealth(0.92)
	if len(health) == 0 {
		t.Fatal("health report empty after a batch")
	}
	var deadHealth *core.RuleHealth
	for i := range health {
		if health[i].RuleID == dead.ID {
			deadHealth = &health[i]
		}
	}
	if deadHealth == nil || len(deadHealth.Issues) == 0 || deadHealth.Issues[0] != core.HealthNeverFired {
		t.Fatalf("dead rule not flagged: %+v", deadHealth)
	}

	// Close the loop: plan from telemetry, apply to the rulebase.
	actions := core.PlanHealthActions(health, 600, 100)
	disabled := p.Rules.ApplyHealthActions(actions, "maint")
	found := false
	for _, id := range disabled {
		if id == dead.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead rule not disabled by telemetry loop: %v", disabled)
	}
	if p.Rules.Get(dead.ID).Status != core.Disabled {
		t.Fatal("rulebase status unchanged")
	}
}

// TestBatchPathMatchesPerItemPath: ProcessBatch must reproduce the
// item-at-a-time reference path (Classify) decision-for-decision — type,
// decline flag, reason, confidence and evidence.
func TestBatchPathMatchesPerItemPath(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 93, NumTypes: 40})
	p := New(Config{Seed: 93, Obs: obs.NewRegistry()})
	p.Train(cat.LabeledData(4000))
	add := func(r *core.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	add(core.NewWhitelist("rings?", "rings"))
	add(core.NewWhitelist("jeans?", "jeans"))
	add(core.NewWhitelist("(motor | engine) oils?", "motor oil"))
	add(core.NewBlacklist("olive oils?", "motor oil"))
	add(core.NewAttrExists("isbn", "books"))
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
	add(core.NewFilter("jeans"))
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 2})

	rb := p.ProcessBatch(items)
	for i, it := range items {
		db, dp := rb.Decisions[i], p.Classify(it)
		if db.Type != dp.Type || db.Declined != dp.Declined || db.Reason != dp.Reason ||
			db.Confidence != dp.Confidence || strings.Join(db.Evidence, ",") != strings.Join(dp.Evidence, ",") {
			t.Fatalf("paths diverge on item %d (%q):\nbatch:    %+v\nper-item: %+v",
				i, it.Title(), db, dp)
		}
	}
}

// TestProcessBatchMatchesClassify: ProcessBatch decides every item through
// Classify's path, whatever the worker count and however the batch falls on
// the 8-item chunks: each decision equals Classify's on the same rulebase
// state and model, field for field, and the audit labels each miss by the
// batch's vocabulary — batch-gate when the Gate Keeper decides it, classifier
// otherwise — and each decision-cache hit, a repeat of an item earlier in the
// same batch included, cached.
func TestProcessBatchMatchesClassify(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 97, NumTypes: 40})
	ens := newEnsemble()
	ens.Train(cat.LabeledData(4000))
	base := cat.GenerateBatch(catalog.BatchSpec{Size: 129, Epoch: 1})
	base[0] = &catalog.Item{ID: "gate-satchel", Attrs: map[string]string{"Title": "quilted leather satchel mini"}}
	base[3] = &catalog.Item{ID: "veto-olive", Attrs: map[string]string{"Title": "extra virgin olive oil 500ml"}}
	base[9] = &catalog.Item{ID: "gate-tote", Attrs: map[string]string{"Title": "canvas tote bag"}}

	for _, workers := range []int{1, 2, 3, 8} {
		for _, cache := range []int{0, 1024} {
			for _, size := range []int{0, 1, 7, 8, 9, 129} {
				items := base[:size]
				if cache > 0 {
					// Every item after the first half repeats one of it.
					items = make([]*catalog.Item, size)
					for i := range items {
						items[i] = base[i%((size+1)/2)]
					}
				}
				name := fmt.Sprintf("workers=%d/cache=%d/size=%d", workers, cache, size)
				p := New(Config{Seed: 97, Workers: workers, CacheCapacity: cache, Obs: obs.NewRegistry(),
					Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: 1 << 10, SampleEvery: 1})})
				addFixtureRules(t, p)
				p.Ensemble = ens
				ref := uncachedTwin(t, p)
				snap := p.Snapshots().Acquire()

				res := p.ProcessBatch(items)
				want := map[string]map[string]uint64{}
				seen := map[uint64]bool{}
				for i, it := range items {
					d := res.Decisions[i]
					if c := ref.Classify(it); !reflect.DeepEqual(d, c) {
						t.Fatalf("%s: item %d (%q):\nProcessBatch %+v\nClassify     %+v", name, i, it.Title(), d, c)
					}
					path := obs.PathClassifier
					switch {
					case cache > 0 && seen[it.Fingerprint()]:
						path = obs.PathCached
					case len(snap.Gate().Apply(it).FinalTypes()) > 0:
						path = obs.PathBatchGate
					}
					seen[it.Fingerprint()] = true
					outcome := obs.OutcomeClassified
					if d.Declined {
						outcome = obs.OutcomeDeclined
					}
					if want[path] == nil {
						want[path] = map[string]uint64{}
					}
					want[path][outcome]++
				}
				if got := p.Audit.Breakdown(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: audit breakdown %v, want %v", name, got, want)
				}
				p.Close()
			}
		}
	}
}

// TestRuleHealthSeesShardedTraffic: the tier's one engine instruments its
// snapshots into the pipeline's registry, so a rule fired only by traffic
// through NewShardedServer shows up in Pipeline.RuleHealth.
func TestRuleHealthSeesShardedTraffic(t *testing.T) {
	p := New(Config{Seed: 23, Obs: obs.NewRegistry()})
	r, err := core.NewWhitelist("rings?", "rings")
	if err != nil {
		t.Fatal(err)
	}
	id, err := p.Rules.Add(r, "ana")
	if err != nil {
		t.Fatal(err)
	}
	srv := p.NewShardedServer(serve.ShardedOptions{Shards: 3}, nil)
	defer srv.Close()

	tk, err := srv.Submit([]*catalog.Item{{ID: "ring-1", Attrs: map[string]string{"Title": "sterling silver ring"}}})
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err() != nil || res.Results[0].Type != "rings" {
		t.Fatalf("tier did not classify the item by the rule: %+v (err %v)", res.Results[0], res.Err())
	}
	for _, h := range p.RuleHealth(0.92) {
		if h.RuleID == id && h.Fired > 0 {
			return
		}
	}
	t.Fatalf("rule %s decided a tier item but RuleHealth does not report it fired: %+v", id, p.RuleHealth(0.92))
}

// TestShardedServerMatchesDirectClassification: the scatter-gather tier,
// wired through Pipeline.NewShardedServer, produces the same decisions as
// the synchronous Classify path — routing and fan-out change where an item
// is classified, never what it is classified as.
func TestShardedServerMatchesDirectClassification(t *testing.T) {
	cat, p := fixture(t, 21)
	srv := p.NewShardedServer(serve.ShardedOptions{Shards: 4, Obs: obs.NewRegistry()}, nil)
	defer srv.Close()

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 120, Epoch: 1})
	tk, err := srv.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err() != nil {
		t.Fatalf("gather failed: %v", res.Err())
	}
	spread := map[int]bool{}
	for i, it := range batch {
		want := p.Classify(it)
		got := res.Results[i]
		if got.Type != want.Type || got.Declined != want.Declined ||
			got.Confidence != want.Confidence || got.Reason != want.Reason {
			t.Fatalf("item %d: sharded %+v != direct %+v", i, got, want)
		}
		spread[res.ShardOf[i]] = true
	}
	if len(spread) < 2 {
		t.Fatalf("batch landed on %d shard(s) — no scatter exercised", len(spread))
	}
}

// TestShardedServerInjectsShardContext: the pipeline's sharded handler runs
// under a context carrying the shard index (the hook targeted fault
// injection keys off), and a targeted injector stalls only that shard.
func TestShardedServerInjectsShardContext(t *testing.T) {
	cat, p := fixture(t, 22)
	inj := faultinject.New(faultinject.Config{
		Seed: 5, ShardStallP: 1.0, ShardStall: time.Microsecond, ShardTarget: 1,
	})
	srv := p.NewShardedServer(serve.ShardedOptions{Shards: 3, Obs: obs.NewRegistry()}, inj)
	defer srv.Close()

	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 90, Epoch: 1})
	tk, err := srv.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	if res := tk.Wait(); res.Err() != nil {
		t.Fatalf("gather failed: %v", res.Err())
	}
	onTarget := 0
	for _, it := range batch {
		if srv.ShardFor(it) == 1 {
			onTarget++
		}
	}
	if onTarget == 0 {
		t.Skip("no items routed to the stalled shard for this seed")
	}
	if got := inj.Counts()["shard_stall"]; got != onTarget {
		t.Fatalf("injector stalled %d handler calls, %d items routed to the target shard", got, onTarget)
	}
}

// refVoteDecision is the Voting Master as a map of votes and a full sort,
// kept as the reference voteDecision must agree with decision for decision.
func refVoteDecision(p *Pipeline, it *catalog.Item, snap *serve.Snapshot, rv *core.Verdict) Decision {
	// Stage 2: classifiers.
	ruleTypes := rv.FinalTypes()
	ensPreds := p.Ensemble.Predict(it)

	// Stage 3: Voting Master.
	votes := map[string]float64{}
	for _, t := range ruleTypes {
		votes[t] += p.cfg.RuleWeight
	}
	for _, pr := range ensPreds {
		// Blacklist vetoes and attribute constraints bind the learners too.
		if rv.Vetoes(pr.Type) || !rv.Admits(pr.Type) {
			continue
		}
		votes[pr.Type] += pr.Score
	}
	if len(votes) == 0 {
		return p.decline(it, "no-votes")
	}
	type tv struct {
		t string
		v float64
	}
	ranked := make([]tv, 0, len(votes))
	for t, v := range votes {
		ranked = append(ranked, tv{t, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].t < ranked[j].t
	})
	best := ranked[0]
	if len(ranked) > 1 && ranked[1].v == best.v {
		return p.decline(it, "ambiguous")
	}
	if best.v < p.cfg.VoteThreshold {
		return p.decline(it, "low-confidence")
	}

	// Stage 4: Filter.
	if fid, killed := snap.FilterFor(best.t); killed {
		return Decision{Item: it, Declined: true, Reason: "filtered:" + best.t + " by " + fid}
	}

	conf := best.v / (p.cfg.RuleWeight + 1)
	if conf > 1 {
		conf = 1
	}
	source := "ensemble"
	var evidence []string
	for _, t := range ruleTypes {
		if t == best.t {
			source = "rules"
			evidence = ruleIDs(rv.AssertedBy(best.t))
			if len(ensPreds) > 0 && ensPreds[0].Type == best.t {
				source = "combined"
			}
		}
	}
	return Decision{Item: it, Type: best.t, Reason: source, Confidence: conf, Evidence: evidence}
}

// fixedPredictions is an ensemble member that predicts the same list for
// every item.
type fixedPredictions []learn.Prediction

func (f fixedPredictions) Name() string                             { return "fixed" }
func (f fixedPredictions) Train([]*catalog.Item)                    {}
func (f fixedPredictions) Predict(*catalog.Item) []learn.Prediction { return f }

// TestVotingMasterCases hand-builds rule verdicts and ensemble votes for the
// Voting Master's edge cases and checks voteDecision against the reference
// and against the expected decision.
func TestVotingMasterCases(t *testing.T) {
	cases := []struct {
		name       string
		ruleWeight float64
		asserted   []string
		vetoed     []string
		allowed    []string // nil: unconstrained
		ens        fixedPredictions
		wantType   string // "" when declined
		wantReason string
	}{
		{name: "rule-only tie", asserted: []string{"rugs", "mats"},
			wantReason: "ambiguous"},
		{name: "rule-plus-ensemble tie", ruleWeight: 0.25, asserted: []string{"mats"},
			ens:        fixedPredictions{{Type: "rugs", Score: 0.5}, {Type: "mats", Score: 0.25}, {Type: "tiles", Score: 0.25}},
			wantReason: "ambiguous"},
		{name: "vetoed top ensemble type", vetoed: []string{"rugs"},
			ens:      fixedPredictions{{Type: "rugs", Score: 0.75}, {Type: "mats", Score: 0.25}},
			wantType: "mats", wantReason: "ensemble"},
		{name: "allowed restriction", asserted: []string{"tiles"}, allowed: []string{"mats"},
			ens:      fixedPredictions{{Type: "rugs", Score: 0.75}, {Type: "mats", Score: 0.25}},
			wantType: "mats", wantReason: "ensemble"},
		{name: "rules and ensemble agree", asserted: []string{"rugs", "mats"},
			ens:      fixedPredictions{{Type: "rugs", Score: 0.75}, {Type: "mats", Score: 0.25}},
			wantType: "rugs", wantReason: "combined"},
		{name: "no votes", vetoed: []string{"rugs"},
			ens:        fixedPredictions{{Type: "rugs", Score: 1}},
			wantReason: "no-votes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{Seed: 3, Obs: obs.NewRegistry(), RuleWeight: tc.ruleWeight, VoteThreshold: 0.1})
			ens, err := learn.NewEnsemble([]learn.Classifier{tc.ens}, nil)
			if err != nil {
				t.Fatal(err)
			}
			p.Ensemble = ens
			var fired []*core.Rule
			for _, ty := range tc.asserted {
				fired = append(fired, &core.Rule{ID: "w-" + ty, Kind: core.Whitelist, TargetType: ty})
			}
			for _, ty := range tc.vetoed {
				fired = append(fired, &core.Rule{ID: "b-" + ty, Kind: core.Blacklist, TargetType: ty})
			}
			if tc.allowed != nil {
				fired = append(fired, &core.Rule{ID: "c", Kind: core.AttrValue, AllowedTypes: tc.allowed})
			}
			rv := core.VerdictOf(fired...)
			it := &catalog.Item{ID: "hand", Attrs: map[string]string{"Title": "braided area rug"}}
			snap := p.Snapshots().Acquire()
			got, want := p.voteDecision(it, snap, p.Ensemble.Model(), rv), refVoteDecision(p, it, snap, rv)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("voteDecision = %+v, reference = %+v", got, want)
			}
			if got.Type != tc.wantType || got.Reason != tc.wantReason || got.Declined != (tc.wantType == "") {
				t.Fatalf("decision %+v, want type %q reason %q", got, tc.wantType, tc.wantReason)
			}
		})
	}
}

var stageSink string

// TestStageOfDeclineAllocatesNothing: each decline family the pipeline
// produces maps to its stage label without building a string.
func TestStageOfDeclineAllocatesNothing(t *testing.T) {
	for reason, want := range map[string]string{
		"no-votes":                  "declined:no-votes",
		"ambiguous":                 "declined:ambiguous",
		"low-confidence":            "declined:low-confidence",
		"filtered:phone by R000001": "declined:filtered",
		"degraded":                  "declined:degraded",
	} {
		d := Decision{Declined: true, Reason: reason}
		if got := stageOf(d); got != want {
			t.Fatalf("stageOf(%q) = %q, want %q", reason, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { stageSink = stageOf(d) }); n != 0 {
			t.Errorf("stageOf(%q) allocates %.0f times, want 0", reason, n)
		}
	}
}
