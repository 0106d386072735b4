package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/social"
)

// ClassifyOptions scales E1/E10.
type ClassifyOptions struct {
	Seed      uint64
	NumTypes  int     // default 150
	TrainSize int     // default 12000
	TestSize  int     // default 6000
	ZipfS     float64 // default 1.3 (steeper head/tail skew than the catalog default)
	TestEpoch int     // default 1: mild vocabulary drift between train and test
}

func (o ClassifyOptions) withDefaults() ClassifyOptions {
	if o.NumTypes == 0 {
		o.NumTypes = 150
	}
	if o.TrainSize == 0 {
		o.TrainSize = 12000
	}
	if o.TestSize == 0 {
		o.TestSize = 6000
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.3
	}
	if o.TestEpoch == 0 {
		o.TestEpoch = 1
	}
	return o
}

// E1 reproduces §3.3's headline numbers: the learning-only ensemble misses
// the 92% precision gate; adding the rule-based and attribute/value
// classifiers lifts precision above the gate and raises recall; and a large
// fraction of product types, having little or no training data, are handled
// primarily by rules.
func E1(opts ClassifyOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		ID:    "E1",
		Title: "Chimera precision/recall: learning-only vs rules-only vs combined",
		PaperClaim: "Learning-only did not reach the 92% gate; adding rules kept precision " +
			"at 92–93% over 16M items while improving recall; ~30% of types had insufficient " +
			"training data and were handled primarily by rules (§3.3).",
		Headers: []string{"configuration", "precision", "recall", "decline rate"},
		Notes: fmt.Sprintf("catalog of %d types, %d training / %d test items (vs 5,000+ types, 852K/16M in production)",
			opts.NumTypes, opts.TrainSize, opts.TestSize),
	}

	cat := catalog.New(catalog.Config{Seed: opts.Seed, NumTypes: opts.NumTypes, ZipfS: opts.ZipfS})
	train := cat.LabeledData(opts.TrainSize)
	// Test data arrives after training data (§2.2: the distribution is not
	// static), so it carries the next epoch's vocabulary.
	test := cat.GenerateBatch(catalog.BatchSpec{Size: opts.TestSize, Epoch: opts.TestEpoch})

	run := func(name string, useRules, useLearning bool) (prec, rec, decl float64) {
		// VoteThreshold 0.62: the system declines marginal ensemble-only
		// predictions — precision over recall, per the §2.2 requirement.
		p := chimera.New(chimera.Config{Seed: opts.Seed + 11, Workers: 8, VoteThreshold: 0.62})
		if useLearning {
			p.Train(train)
		}
		if useRules {
			if err := SeedRules(cat, p.Rules, "ana"); err != nil {
				rep.Findingf("seed rules failed: %v", err)
				return 0, 0, 1
			}
		}
		res := p.ProcessBatch(test)
		if useRules && useLearning {
			// The full system runs the Figure-2 loop: evaluate a crowd
			// sample; while the estimate misses the gate, incorporate the
			// analysts' feedback (patch rules + relabeled training data)
			// and rerun the batch — "we incorporate the analysts' feedback
			// into Chimera, rerun the system on the input items, sample and
			// ask the crowd to evaluate, and so on" (§3.3).
			for round := 0; round < 3; round++ {
				ir, err := p.EvaluateAndImprove(res)
				if err != nil {
					rep.Findingf("evaluation failed: %v", err)
					break
				}
				if ir.PassedGate {
					break
				}
				res = p.ProcessBatch(test)
			}
		}
		prec, rec = res.TruePrecisionRecall()
		return prec, rec, res.DeclineRate()
	}

	learnP, learnR, learnD := run("learning-only", false, true)
	rulesP, rulesR, rulesD := run("rules-only", true, false)
	bothP, bothR, bothD := run("rules+learning", true, true)

	rep.AddRow("learning-only ensemble (single pass)", learnP, learnR, learnD)
	rep.AddRow("rules-only", rulesP, rulesR, rulesD)
	rep.AddRow("rules+learning with repair loop (Chimera)", bothP, bothR, bothD)

	covered, uncovered := catalog.SplitTraining(train, 10)
	// Types absent from the training data entirely count as uncovered too.
	uncoveredTotal := len(uncovered) + opts.NumTypes - len(covered) - len(uncovered)
	rep.Findingf("types with <10 training items: %d of %d (%.0f%%) — the paper reports ~30%% handled primarily by rules",
		uncoveredTotal, opts.NumTypes, 100*float64(uncoveredTotal)/float64(opts.NumTypes))
	rep.Findingf("gate = 0.92: learning-only %s it (%.3f), combined %s it (%.3f)",
		passWord(learnP >= 0.92), learnP, passWord(bothP >= 0.92), bothP)
	rep.Findingf("recall: combined %.3f vs learning-only %.3f vs rules-only %.3f", bothR, learnR, rulesR)

	rep.ShapeOK = learnP < 0.92 && bothP >= 0.92 && bothR > rulesR && bothP >= learnP
	return rep
}

func passWord(b bool) string {
	if b {
		return "meets"
	}
	return "misses"
}

// E10 reproduces the ongoing-operation drills of §2.2/§3.2/§6: concept
// drift and a new-vocabulary vendor degrade precision; the monitor detects
// it; scaling the degraded types down restores gate compliance at a recall
// cost; analyst patching (synonym expansion of the affected rules) restores
// recall; and the Tweetbeat monitor survives a decoy episode the same way.
func E10(opts ClassifyOptions) *Report {
	opts = opts.withDefaults()
	rep := &Report{
		ID:    "E10",
		Title: "Drift, degradation detection, scale-down and repair",
		PaperClaim: "Accuracy can suddenly degrade on ever-changing data; the system must " +
			"detect quickly, scale down the bad parts, then repair and restore (§2.2); " +
			"Tweetbeat analysts use rules to scale down a misbehaving event (§6).",
		Headers: []string{"stage", "precision", "recall", "declined"},
		Notes:   "drift = epoch-3 vocabulary + new-vocabulary vendor batch; repair = synonym-expanded rules",
	}

	cat := catalog.New(catalog.Config{Seed: opts.Seed + 3, NumTypes: opts.NumTypes, ZipfS: opts.ZipfS})
	train := cat.LabeledData(opts.TrainSize)
	p := chimera.New(chimera.Config{Seed: opts.Seed + 4, Workers: 8})
	p.Train(train)
	if err := SeedRules(cat, p.Rules, "ana"); err != nil {
		rep.Findingf("seed rules failed: %v", err)
		return rep
	}

	// Stage 0: steady state at epoch 0.
	steady := cat.GenerateBatch(catalog.BatchSpec{Size: opts.TestSize / 2, Epoch: 0})
	res0 := p.ProcessBatch(steady)
	p0, r0 := res0.TruePrecisionRecall()
	rep.AddRow("steady state (epoch 0)", p0, r0, res0.DeclineRate())

	// Stage 1: drift — late-epoch vocabulary from a new-vocabulary vendor.
	drifted := cat.GenerateBatch(catalog.BatchSpec{Size: opts.TestSize / 2, Epoch: 3, Vendor: "brand-new-vendor"})
	res1 := p.ProcessBatch(drifted)
	p1, r1 := res1.TruePrecisionRecall()
	rep.AddRow("drifted batch (epoch 3, new vendor)", p1, r1, res1.DeclineRate())

	// Stage 2: detection via the crowd sample, then scale down the degraded
	// types (those with several flagged errors).
	impRep, err := p.EvaluateAndImprove(res1)
	if err != nil {
		rep.Findingf("evaluation failed: %v", err)
		return rep
	}
	detected := impRep.EstPrecision < 0.92
	rep.Findingf("monitor estimate on drifted batch: %.3f (gate %s)", impRep.EstPrecision, passWord(!detected))

	flagged := chimera.FlaggedFrom(res1, chimera.CorrectByGroundTruth)
	degraded := chimera.DegradedTypes(flagged, 5)
	var tokens []*chimera.RestoreToken
	for _, ty := range degraded {
		tok, err := p.ScaleDownType(ty, "ana", "drift drill")
		if err == nil {
			tokens = append(tokens, tok)
		}
	}
	res2 := p.ProcessBatch(drifted)
	p2, r2 := res2.TruePrecisionRecall()
	rep.AddRow(fmt.Sprintf("after scale-down of %d types", len(degraded)), p2, r2, res2.DeclineRate())

	// Stage 3: repair — analysts expand the affected types' rules with the
	// emerged synonyms (the §5.1 tool's job), then restore.
	for _, tok := range tokens {
		_ = p.Restore(tok, "ana")
	}
	repaired := 0
	for _, ty := range cat.Types() {
		for _, s := range ty.Synonyms {
			if s.EmergeEpoch > 0 && s.EmergeEpoch <= 3 {
				r, err := core.NewWhitelist(s.Text, ty.Name)
				if err != nil {
					continue
				}
				r.Provenance = "synonym-tool"
				if _, err := p.Rules.Add(r, "ana"); err == nil {
					repaired++
				}
			}
		}
	}
	res3 := p.ProcessBatch(drifted)
	p3, r3 := res3.TruePrecisionRecall()
	rep.AddRow(fmt.Sprintf("after repair (+%d synonym rules)", repaired), p3, r3, res3.DeclineRate())

	// Tweetbeat drill.
	base := kb.Build(kb.SyntheticSource(opts.Seed, 0))
	events := []social.Event{{
		Name:     "championship-final",
		Keywords: []string{"final", "goal", "match", "stadium", "score"},
		Entities: []string{"river city rovers", "harbor city hawks"},
	}}
	mon := social.NewMonitor(social.NewTagger(base), events)
	stream := social.NewStream(opts.Seed+9, base, events)
	bad := stream.Window(social.WindowOptions{Size: 1200, ConfusingEvent: "championship-final", PConfusing: 0.35})
	before := mon.EvaluateWindow(bad)["championship-final"]
	mon.ScaleDown("championship-final", 2)
	after := mon.EvaluateWindow(bad)["championship-final"]
	rep.Findingf("tweetbeat decoy episode: precision %.3f → %.3f after scale-down (recall %.3f → %.3f)",
		before.Precision, after.Precision, before.Recall, after.Recall)

	rep.ShapeOK = p1 < p0 && detected && p2 > p1 && r3 > r2 && after.Precision > before.Precision
	return rep
}
