package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mining"
	"repro/internal/obs"
	"repro/internal/randx"
)

// ExecOptions scales E4/E5/E11.
type ExecOptions struct {
	Seed      uint64
	NumTypes  int // default 120
	RuleCount int // target rulebase size, default 20000 (the paper's 20,459)
	ItemCount int // default 2000
	Workers   int // default 8
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.NumTypes == 0 {
		o.NumTypes = 120
	}
	if o.RuleCount == 0 {
		o.RuleCount = 20000
	}
	if o.ItemCount == 0 {
		o.ItemCount = 2000
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	return o
}

// buildBigRulebase assembles a rulebase of roughly target size the way a
// production system accumulates one: analyst seed rules, mined candidate
// rules (selection off — the paper's 874K candidate pool is exactly the
// kind of mass a system that keeps "adding rules" ends up with), and
// mechanical variants.
func buildBigRulebase(opts ExecOptions, cat *catalog.Catalog, labeled []*catalog.Item) []*core.Rule {
	rb := core.NewRulebase()
	_ = SeedRules(cat, rb, "ana")
	res, err := mining.GenerateRules(labeled, mining.Options{
		MinSupport:      0.01,
		MaxRulesPerType: 1 << 30, // keep everything; we want mass
		AllowTrainingFP: true,
	})
	if err == nil {
	outer:
		for _, t := range sortedKeys(res.PerType) {
			for _, c := range res.PerType[t] {
				if rb.Len() >= opts.RuleCount {
					break outer
				}
				clone, err := coreWhitelist(c.Rule.Source, c.Rule.TargetType, c.Confidence)
				if err != nil {
					continue
				}
				_, _ = rb.Add(clone, "mined")
			}
		}
	}
	// Mechanical variants pad the remainder (rare at default scales).
	for i := 0; rb.Len() < opts.RuleCount; i++ {
		ty := cat.Types()[i%len(cat.Types())]
		src := fmt.Sprintf("%s.*variant%d", firstHead(ty), i)
		r, err := core.NewWhitelist(src, ty.Name)
		if err != nil {
			continue
		}
		_, _ = rb.Add(r, "padding")
	}
	return rb.Active()
}

func firstHead(ty *catalog.TypeSpec) string {
	if len(ty.HeadTerms) > 0 {
		return ty.HeadTerms[0].Text
	}
	return ty.Name
}

// E4 reproduces the §4/§5.3 execution challenge: naive scanning of tens of
// thousands of rules per item is slow; indexing the rules gives
// order-of-magnitude speedups; sharded parallel execution scales further.
func E4(opts ExecOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		ID:    "E4",
		Title: "Rule execution at scale: naive vs indexed vs parallel",
		PaperClaim: "\"A major challenge is to scale up the execution of tens of thousands " +
			"of rules\"; the proposed solutions are rule indexing (§5.3: locate only the " +
			"rules likely to match an item) and cluster execution.",
		Headers: []string{"executor", "total time", "µs/item", "speedup vs naive", "candidates/item", "match ratio"},
		Notes: fmt.Sprintf("%d rules over %d items, %d workers for the parallel run (Hadoop → goroutine shards); "+
			"candidates/item is the number of rules handed to the matcher per item, match ratio the share of them that match",
			opts.RuleCount, opts.ItemCount, opts.Workers),
	}
	cat := catalog.New(catalog.Config{Seed: opts.Seed + 41, NumTypes: opts.NumTypes})
	labeled := cat.LabeledData(8000)
	rules := buildBigRulebase(opts, cat, labeled)
	items := cat.GenerateBatch(catalog.BatchSpec{Size: opts.ItemCount, Epoch: 0})

	seq := core.NewSequentialExecutor(rules)
	idx := core.NewIndexedExecutor(rules)

	// ExecuteBatchItemwise is the per-item path (Apply on every item).
	// The indexed passes take ~0.1 s each, short enough for one GC cycle or
	// scheduler hiccup to flip the shape checks below: keep the best of three.
	tNaive := timeIt(func() { core.ExecuteBatchItemwise(seq, items, 1) })
	tIndexed := bestOf(3, func() { core.ExecuteBatchItemwise(idx, items, 1) })
	tParallel := bestOf(3, func() { core.ExecuteBatchItemwise(idx, items, opts.Workers) })

	// Selectivity of candidate generation, counted (not timed) by an
	// instrumented twin of the indexed executor over a private registry. The
	// sequential scan hands every item every rule.
	perItemSel := core.NewInstrumentedExecutor(rules, obs.NewRegistry())
	core.ExecuteBatchItemwise(perItemSel, items, 1)
	candItem, ratioItem := perItemSel.Selectivity()
	candNaive := float64(idx.Index().Len())
	ratioNaive := candItem * ratioItem / candNaive

	row := func(name string, d time.Duration, cand, ratio float64) {
		rep.AddRow(name, d.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(d.Microseconds())/float64(len(items))),
			fmt.Sprintf("%.1fx", float64(tNaive)/float64(d)),
			fmt.Sprintf("%.1f", cand), fmt.Sprintf("%.4f", ratio))
	}
	row("sequential scan", tNaive, candNaive, ratioNaive)
	row("rule index", tIndexed, candItem, ratioItem)
	row(fmt.Sprintf("rule index + %d workers", opts.Workers), tParallel, candItem, ratioItem)

	// Verify the speedups changed nothing.
	agree := true
	probe := items
	if len(probe) > 200 {
		probe = probe[:200]
	}
	bvs := idx.ApplyBatch(probe, 1)
	for i, it := range probe {
		sv := seq.Apply(it)
		if !core.VerdictsEqual(sv, idx.Apply(it)) || !core.VerdictsEqual(sv, bvs[i]) {
			agree = false
			break
		}
	}
	rep.Findingf("all executors agree on all %d probed items: %v", len(probe), agree)
	rep.Findingf("actual rulebase size: %d rules (paper: 20,459)", len(rules))
	rep.Findingf("the index hands the matcher %.1f of %.0f rules per item (1 in %.0f)", candItem, candNaive, candNaive/candItem)
	cores := runtime.NumCPU()
	if cores == 1 {
		rep.Findingf("host has 1 CPU: the worker-sharded run measures coordination overhead only; on multi-core hosts it scales with cores")
	}

	parallelOK := tParallel < tIndexed || cores == 1
	rep.ShapeOK = agree && tIndexed*10 < tNaive && parallelOK
	return rep
}

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// bestOf returns the shortest of n timings of f.
func bestOf(n int, f func()) time.Duration {
	best := timeIt(f)
	for i := 1; i < n; i++ {
		if d := timeIt(f); d < best {
			best = d
		}
	}
	return best
}

// E5 reproduces the §4 rule-system-properties proposal: prove/check that
// under whitelist-before-blacklist staged semantics the output is invariant
// to execution order, and show the checker refuting the property for a
// first-match-wins design.
func E5(opts ExecOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		ID:    "E5",
		Title: "Order-independence of the rule system",
		PaperClaim: "\"One such property could be: the output of the system remains the same " +
			"regardless of the order in which the rules are being executed\"; Chimera's " +
			"whitelist-before-blacklist staging makes order within each stage irrelevant (§4).",
		Headers: []string{"design", "property holds", "permutations tried", "witness"},
	}
	cat := catalog.New(catalog.Config{Seed: opts.Seed + 51, NumTypes: 60})
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 1})

	rb := core.NewRulebase()
	_ = SeedRules(cat, rb, "ana")
	rules := rb.Active()

	r := randx.New(opts.Seed + 52)
	staged := core.CheckOrderIndependence(rules, items, r, 40)
	rep.AddRow("staged set semantics (Chimera)", staged.Holds, staged.PermutationsTried, truncate(staged.Witness, 60))

	// Counter-design: first-match-wins. The same checker logic applied to a
	// first-match classifier finds an order witness.
	fmHolds, fmTried, fmWitness := checkFirstMatchOrder(rules, items, r, 40)
	rep.AddRow("first-match-wins (counter-design)", fmHolds, fmTried, truncate(fmWitness, 60))

	rep.Findingf("the checker validates the production design and refutes the naive one — the §4 program of proving/designing for properties")
	rep.ShapeOK = staged.Holds && !fmHolds
	return rep
}

// checkFirstMatchOrder permutes rule order under first-match-wins semantics.
func checkFirstMatchOrder(rules []*core.Rule, items []*catalog.Item, r *randx.Rand, trials int) (holds bool, tried int, witness string) {
	classify := func(order []*core.Rule, it *catalog.Item) string {
		for _, rule := range order {
			if rule.Kind != core.Whitelist && rule.Kind != core.Gate {
				continue
			}
			if rule.Matches(it) {
				return rule.TargetType
			}
		}
		return ""
	}
	baseline := make([]string, len(items))
	for i, it := range items {
		baseline[i] = classify(rules, it)
	}
	tried = 1
	for t := 0; t < trials; t++ {
		perm := r.Perm(len(rules))
		shuffled := make([]*core.Rule, len(rules))
		for i, j := range perm {
			shuffled[i] = rules[j]
		}
		tried++
		for i, it := range items {
			if got := classify(shuffled, it); got != baseline[i] {
				return false, tried, fmt.Sprintf("item %s: %q vs %q", it.ID, got, baseline[i])
			}
		}
	}
	return true, tried, ""
}

func truncate(s string, n int) string {
	if s == "" {
		return "—"
	}
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// E11 reproduces the §4 maintenance agenda at rulebase scale: subsumption
// (the paper's denim.*jeans? ⊂ jeans? example), duplicates, significant
// overlaps (the two abrasive-wheel rules), staleness after a taxonomy
// split (pants → work pants / jeans), and consolidation with its
// debuggability trade-off.
func E11(opts ExecOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		ID:    "E11",
		Title: "Rule maintenance analyses over a large rulebase",
		PaperClaim: "Detect subsumed rules (denim.*jeans? ⊂ jeans?), duplicates added " +
			"independently by two analysts, significantly overlapping rules (the two " +
			"abrasive-wheels regexes), rules invalidated by a taxonomy split, and weigh " +
			"consolidation against debuggability (§4).",
		Headers: []string{"analysis", "found", "elapsed"},
		Notes:   fmt.Sprintf("rulebase of ~%d rules (mined + seed + injected redundancy)", opts.RuleCount),
	}
	cat := catalog.New(catalog.Config{Seed: opts.Seed + 61, NumTypes: opts.NumTypes})
	labeled := cat.LabeledData(8000)
	rules := buildBigRulebase(opts, cat, labeled)

	// Inject the paper's motifs on top of the organic mass.
	rb := core.NewRulebase()
	for _, r := range rules {
		clone := *r
		clone.ID = ""
		_, _ = rb.Add(&clone, r.Author)
	}
	inject := func(kind core.Kind, src, target string) {
		var r *core.Rule
		var err error
		if kind == core.Whitelist {
			r, err = core.NewWhitelist(src, target)
		} else {
			r, err = core.NewBlacklist(src, target)
		}
		if err == nil {
			_, _ = rb.Add(r, "ana2")
		}
	}
	inject(core.Whitelist, "jeans?", "jeans")
	inject(core.Whitelist, "denim.*jeans?", "jeans")
	inject(core.Whitelist, "jeans?", "jeans") // duplicate by a second analyst
	inject(core.Whitelist, "(abrasive|sand(er|ing))[ -](wheels?|discs?)", "abrasive wheels & discs")
	inject(core.Whitelist, "abrasive.*(wheels?|discs?)", "abrasive wheels & discs")
	inject(core.Whitelist, "pants?", "pants") // taxonomy-split victim

	active := rb.Active()
	corpus := cat.GenerateBatch(catalog.BatchSpec{Size: 4000, Epoch: 1})
	di := core.NewDataIndex(corpus)

	tSub := time.Now()
	subs := core.FindSubsumed(active)
	dSub := time.Since(tSub)
	rep.AddRow("subsumed pairs", len(subs), dSub.Round(time.Millisecond).String())

	tDup := time.Now()
	dups := core.FindDuplicates(active)
	dDup := time.Since(tDup)
	rep.AddRow("duplicate pairs", len(dups), dDup.Round(time.Millisecond).String())

	tOv := time.Now()
	overlaps := core.FindOverlaps(active, di, 0.3)
	dOv := time.Since(tOv)
	rep.AddRow("significant overlaps (Jaccard ≥ 0.3)", len(overlaps), dOv.Round(time.Millisecond).String())

	valid := map[string]bool{}
	for _, ty := range cat.Types() {
		valid[ty.Name] = true
	}
	valid["work pants"] = true // split result; "pants" itself is gone
	tSt := time.Now()
	stale := core.FindStale(active, di, valid)
	dSt := time.Since(tSt)
	rep.AddRow("stale rules (no coverage or dead target)", len(stale), dSt.Round(time.Millisecond).String())

	tCon := time.Now()
	cons := core.ConsolidateWhitelists(active)
	dCon := time.Since(tCon)
	merged := 0
	for _, c := range cons {
		merged += len(c.SourceIDs)
	}
	rep.AddRow(fmt.Sprintf("consolidations (%d rules → %d)", merged, len(cons)), len(cons), dCon.Round(time.Millisecond).String())

	// Verify the paper's specific motifs were caught.
	foundJeansSub := false
	for _, s := range subs {
		if rb.Get(s.SpecificID).Source == "denim.*jeans?" {
			foundJeansSub = true
		}
	}
	foundAbrasiveOverlap := false
	for _, o := range overlaps {
		a, b := rb.Get(o.AID).Source, rb.Get(o.BID).Source
		if (a == "(abrasive|sand(er|ing))[ -](wheels?|discs?)" && b == "abrasive.*(wheels?|discs?)") ||
			(b == "(abrasive|sand(er|ing))[ -](wheels?|discs?)" && a == "abrasive.*(wheels?|discs?)") {
			foundAbrasiveOverlap = true
		}
	}
	foundPantsStale := false
	for _, s := range stale {
		if rb.Get(s.RuleID).TargetType == "pants" {
			foundPantsStale = true
		}
	}
	rep.Findingf("paper motifs detected: jeans subsumption %v, abrasive overlap %v, pants staleness %v",
		foundJeansSub, foundAbrasiveOverlap, foundPantsStale)

	// Consolidation trade-off: merged rules preserve matches but blame
	// attribution needs SplitConsolidated.
	preserved := true
	for _, c := range cons[:min(len(cons), 20)] {
		for _, id := range c.SourceIDs {
			src := rb.Get(id)
			for _, m := range di.Matches(src)[:min(len(di.Matches(src)), 5)] {
				if !c.MergedRule.Matches(corpus[m]) {
					preserved = false
				}
			}
			if core.SplitConsolidated(c.MergedRule) == nil {
				preserved = false
			}
		}
	}
	rep.Findingf("consolidation preserves coverage and split-back provenance: %v", preserved)

	rep.ShapeOK = foundJeansSub && foundAbrasiveOverlap && foundPantsStale &&
		len(dups) > 0 && preserved
	return rep
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
