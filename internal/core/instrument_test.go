package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/randx"
)

// verdictBytes serializes a verdict canonically: Go's JSON encoder sorts map
// keys and preserves slice order, so two verdicts marshal to the same bytes
// iff they assert the same rules in the same absorb order.
func verdictBytes(t *testing.T, v *Verdict) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Asserted    map[string][]*Rule
		Vetoed      map[string][]*Rule
		Allowed     map[string]bool
		Constraints []*Rule
	}{v.Asserted, v.Vetoed, v.Allowed, v.Constraints})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestInstrumentedVerdictsByteIdentical is the transparency property: over
// a real corpus and random titles alike, an executor built with telemetry
// returns verdicts that serialize byte-identically to a plain one's.
func TestInstrumentedVerdictsByteIdentical(t *testing.T) {
	items, rules := corpusAndRules(t, 1500)
	plain := NewIndexedExecutor(rules)
	inst := NewInstrumentedExecutor(rules, obs.NewRegistry())
	for _, it := range items {
		a, b := plain.Apply(it), inst.Apply(it)
		if ab, bb := verdictBytes(t, a), verdictBytes(t, b); ab != bb {
			t.Fatalf("verdicts differ on %q:\nplain %s\ninst  %s", it.Title(), ab, bb)
		}
	}

	vocab := []string{"ring", "rings", "diamond", "motor", "oil", "olive",
		"laptop", "bag", "jeans", "denim", "satchel", "q", "z"}
	f := func(seed uint64, n uint8) bool {
		r := randx.New(seed)
		tokens := make([]string, int(n)%10)
		for i := range tokens {
			tokens[i] = vocab[r.Intn(len(vocab))]
		}
		it := &catalog.Item{ID: "q", Attrs: map[string]string{"Title": join(tokens)}}
		return verdictBytes(t, plain.Apply(it)) == verdictBytes(t, inst.Apply(it))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentedTelemetry(t *testing.T) {
	items, rules := corpusAndRules(t, 800)
	reg := obs.NewRegistry()
	inst := NewInstrumentedExecutor(rules, reg)
	for _, it := range items {
		inst.Apply(it)
	}
	if inst.Applies() != int64(len(items)) {
		t.Fatalf("applies = %d, want %d", inst.Applies(), len(items))
	}
	avgCands, ratio := inst.Selectivity()
	if avgCands <= 0 || avgCands >= float64(len(rules)) {
		t.Fatalf("avg candidates = %v (rules: %d)", avgCands, len(rules))
	}
	if ratio <= 0 || ratio > 1 {
		t.Fatalf("match ratio = %v", ratio)
	}
	// Per-rule fired counters must sum to the matched total.
	var firedSum int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == MetricRuleFired {
			firedSum += c.Value
		}
	}
	if matched := reg.Counter(MetricExecMatched).Value(); firedSum != matched {
		t.Fatalf("per-rule fired sum %d != matched %d", firedSum, matched)
	}
	// Latency is sampled: exactly one observation per LatencySampleEvery
	// applies (the sequence counter starts at 1, so floor division).
	wantLat := int64(len(items)) / LatencySampleEvery
	if got := reg.Histogram(MetricExecLatency, nil).Count(); got != wantLat {
		t.Fatalf("latency observations = %d, want %d (1 in %d applies)", got, wantLat, LatencySampleEvery)
	}
}

// TestInstrumentedConcurrent drives the instrumented executor from many
// goroutines; -race verifies the telemetry hot path is lock-free-safe.
func TestInstrumentedConcurrent(t *testing.T) {
	items, rules := corpusAndRules(t, 400)
	inst := NewInstrumentedExecutor(rules, obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, it := range items {
				inst.Apply(it)
			}
		}()
	}
	wg.Wait()
	if inst.Applies() != int64(8*len(items)) {
		t.Fatalf("applies = %d", inst.Applies())
	}
}

// TestInstrumentedBatchSharesRuleTelemetry: Apply and ApplyBatch record into
// the executor's one telemetry table, so Health() / Selectivity() read the
// same totals whichever path classified.
func TestInstrumentedBatchSharesRuleTelemetry(t *testing.T) {
	items, rules := corpusAndRules(t, 600)
	perItem := NewInstrumentedExecutor(rules, obs.NewRegistry())
	batch := NewInstrumentedExecutor(rules, obs.NewRegistry())
	for _, it := range items {
		perItem.Apply(it)
	}
	batch.ApplyBatch(items, 3)

	if !reflect.DeepEqual(perItem.Health(0.92), batch.Health(0.92)) {
		t.Fatalf("Health differs by path:\nper item: %+v\nbatch:    %+v", perItem.Health(0.92), batch.Health(0.92))
	}
	pc, pr := perItem.Selectivity()
	bc, br := batch.Selectivity()
	if pc != bc || pr != br {
		t.Fatalf("Selectivity differs by path: per item (%v, %v), batch (%v, %v)", pc, pr, bc, br)
	}
	if pc == 0 {
		t.Fatal("fixture proposed no candidates")
	}
}

// TestPlainExecutorHasNoTelemetry: NewIndexedExecutor answers the telemetry
// accessors with zero values and records nothing anywhere — in particular not
// into the process-wide default registry an instrumented executor falls back
// to.
func TestPlainExecutorHasNoTelemetry(t *testing.T) {
	items, rules := corpusAndRules(t, 200)
	before := obs.Default().Counter(MetricExecApplies).Value()
	plain := NewIndexedExecutor(rules)
	for _, it := range items {
		plain.Apply(it)
	}
	plain.ApplyBatch(items, 2)
	if n := plain.Applies(); n != 0 {
		t.Fatalf("Applies() = %d, want 0", n)
	}
	if c, r := plain.Selectivity(); c != 0 || r != 0 {
		t.Fatalf("Selectivity() = (%v, %v), want (0, 0)", c, r)
	}
	if h := plain.Health(0.92); h != nil {
		t.Fatalf("Health() = %+v, want nil", h)
	}
	if after := obs.Default().Counter(MetricExecApplies).Value(); after != before {
		t.Fatalf("a plain executor recorded %d applies into obs.Default()", after-before)
	}
}

// TestInstrumentedRulesWithoutIDs: rules that never went through a Rulebase
// have no ID and so no per-rule series; they are counted in the
// executor-level series only, on both paths, and left out of Health.
func TestInstrumentedRulesWithoutIDs(t *testing.T) {
	reg := obs.NewRegistry()
	named := mustRule(NewWhitelist("gold", "rings"))
	named.ID = "W1"
	inst := NewInstrumentedExecutor([]*Rule{mustRule(NewWhitelist("rings?", "rings")), named}, reg)
	it := item("gold ring", nil)
	inst.Apply(it)
	inst.ApplyBatch([]*catalog.Item{it}, 1)
	if got := reg.Counter(MetricExecMatched).Value(); got != 4 {
		t.Fatalf("matched = %d, want 4 (two rules, two paths)", got)
	}
	if got := reg.Counter(MetricRuleFired, "rule", "W1").Value(); got != 2 {
		t.Fatalf("W1 fired = %d, want 2", got)
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == MetricRuleFired && c.Labels[0].Value != "W1" {
			t.Fatalf("per-rule series registered for a rule without an ID: %+v", c)
		}
	}
	if h := inst.Health(0); len(h) != 1 || h[0].RuleID != "W1" {
		t.Fatalf("Health() = %+v, want the one rule with an ID", h)
	}
}

// TestInstrumentedMetricFamiliesPinned: the series, labels and help strings
// an instrumented executor registers after one Apply and one ApplyBatch are
// an interface — dashboards and benchmark/trace.go read them by name — so a
// kernel change that renames, drops or adds one has to change this list.
func TestInstrumentedMetricFamiliesPinned(t *testing.T) {
	reg := obs.NewRegistry()
	w1 := mustRule(NewWhitelist("gold", "rings"))
	w1.ID = "W1"
	inst := NewInstrumentedExecutor([]*Rule{w1}, reg, "exec", "rules")
	it := item("gold ring", nil)
	inst.Apply(it)
	inst.ApplyBatch([]*catalog.Item{it}, 1)

	snap := reg.Snapshot()
	var got []string
	for _, c := range snap.Counters {
		got = append(got, fmt.Sprintf("counter %s %v", c.Name, c.Labels))
	}
	for _, h := range snap.Histograms {
		got = append(got, fmt.Sprintf("histogram %s %v", h.Name, h.Labels))
	}
	for _, g := range snap.Gauges {
		got = append(got, fmt.Sprintf("gauge %s %v", g.Name, g.Labels))
	}
	for name, text := range snap.Help {
		got = append(got, fmt.Sprintf("help %s %q", name, text))
	}
	sort.Strings(got)
	want := []string{
		`counter core_batch_batches_total [{exec rules}]`,
		`counter core_batch_candidates_pruned_total [{exec rules}]`,
		`counter core_batch_candidates_total [{exec rules}]`,
		`counter core_batch_intern_hits_total [{exec rules}]`,
		`counter core_batch_intern_misses_total [{exec rules}]`,
		`counter core_batch_items_total [{exec rules}]`,
		`counter core_batch_units_total [{exec rules}]`,
		`counter core_exec_applies_total [{exec rules}]`,
		`counter core_exec_candidates_total [{exec rules}]`,
		`counter core_exec_matched_total [{exec rules}]`,
		`counter core_rule_effective_total [{rule W1}]`,
		`counter core_rule_fired_total [{rule W1}]`,
		`help core_batch_batches_total "batches evaluated through the batch-inverted matcher"`,
		`help core_batch_candidates_pruned_total "duplicate candidates removed by per-unit dedup"`,
		`help core_batch_units_total "(rule, candidate-items) work units produced by the batch join"`,
		`help core_rule_effective_total "times each rule's assertion survived the final verdict"`,
		`help core_rule_fired_total "times each rule matched an item"`,
		`histogram core_exec_apply_seconds [{exec rules}]`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered families changed:\ngot:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestRuleHealthReport(t *testing.T) {
	// Build a tiny rulebase with one healthy rule, one never-firing rule,
	// one always-vetoed rule, and one low-precision rule.
	rb := NewRulebase()
	add := func(r *Rule, err error) *Rule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	healthy := add(NewWhitelist("rings?", "rings"))
	dead := add(NewWhitelist("unobtainium widgets?", "widgets"))
	vetoed := add(NewWhitelist("olive oils?", "motor oil"))
	add(NewBlacklist("olive oils?", "motor oil"))
	lowPrec := add(NewWhitelist("jeans?", "jeans"))
	lowPrec.Confidence = 0.5

	inst := NewInstrumentedExecutor(rb.Active(), obs.NewRegistry())
	if inst.Health(0.92) != nil {
		t.Fatal("cold executor must report no health data")
	}
	titles := []string{"diamond ring size 7", "extra virgin olive oil", "slim fit jeans", "olive oil 1l"}
	for i, title := range titles {
		inst.Apply(item(title, nil))
		_ = i
	}

	health := inst.Health(0.92)
	byID := map[string]RuleHealth{}
	for _, h := range health {
		byID[h.RuleID] = h
	}
	if h := byID[healthy.ID]; h.Unhealthy() || h.Fired == 0 || h.Effective == 0 {
		t.Fatalf("healthy rule misreported: %+v", h)
	}
	if h := byID[dead.ID]; len(h.Issues) != 1 || h.Issues[0] != HealthNeverFired {
		t.Fatalf("dead rule misreported: %+v", h)
	}
	if h := byID[vetoed.ID]; len(h.Issues) != 1 || h.Issues[0] != HealthAlwaysVetoed || h.Fired == 0 {
		t.Fatalf("vetoed rule misreported: %+v", h)
	}
	if h := byID[lowPrec.ID]; len(h.Issues) != 1 || h.Issues[0] != HealthLowPrecision {
		t.Fatalf("low-precision rule misreported: %+v", h)
	}
	// Ranking: every unhealthy rule precedes every healthy one.
	seenHealthy := false
	for _, h := range health {
		if !h.Unhealthy() {
			seenHealthy = true
		} else if seenHealthy {
			t.Fatalf("unhealthy rule ranked after a healthy one: %+v", health)
		}
	}

	// The report feeds the maintenance loop: plan + apply actions.
	actions := PlanHealthActions(health, inst.Applies(), 100)
	if actions != nil {
		t.Fatal("below minApplies the planner must stay quiet")
	}
	actions = PlanHealthActions(health, inst.Applies(), 1)
	wantAction := map[string]string{dead.ID: "disable", vetoed.ID: "disable", lowPrec.ID: "review"}
	got := map[string]string{}
	for _, a := range actions {
		got[a.RuleID] = a.Action
		if a.Reason == "" {
			t.Fatalf("action without reason: %+v", a)
		}
	}
	for id, action := range wantAction {
		if got[id] != action {
			t.Fatalf("rule %s: action %q, want %q (all: %v)", id, got[id], action, actions)
		}
	}
	disabled := rb.ApplyHealthActions(actions, "maint")
	if len(disabled) != 2 {
		t.Fatalf("disabled = %v, want the 2 disable actions", disabled)
	}
	if rb.Get(dead.ID).Status != Disabled || rb.Get(vetoed.ID).Status != Disabled {
		t.Fatal("disable actions must take effect")
	}
	if rb.Get(lowPrec.ID).Status != Active {
		t.Fatal("review actions must not touch the rule")
	}
}

func TestRulebaseMutationCounters(t *testing.T) {
	reg := obs.NewRegistry()
	rb := NewRulebase()
	rb.Instrument(reg)
	r := mustRule(NewWhitelist("rings?", "rings"))
	id, err := rb.Add(r, "ana")
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Disable(id, "ana", ""); err != nil {
		t.Fatal(err)
	}
	if err := rb.Enable(id, "ana", ""); err != nil {
		t.Fatal(err)
	}
	if err := rb.UpdateConfidence(id, 0.8, "ana"); err != nil {
		t.Fatal(err)
	}
	for action, want := range map[string]int64{"add": 1, "disable": 1, "enable": 1, "update": 1} {
		if got := reg.Counter(MetricRulebaseMutations, "action", action).Value(); got != want {
			t.Fatalf("%s mutations = %d, want %d", action, got, want)
		}
	}
}
