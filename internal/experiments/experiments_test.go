package experiments

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// The experiment functions run at full scale from cmd/experiments and the
// root benchmarks; tests exercise them at reduced scale and assert the
// structural invariants that must hold at any scale.

func TestSeedRules(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 1, NumTypes: 60})
	rb := core.NewRulebase()
	if err := SeedRules(cat, rb, "ana"); err != nil {
		t.Fatal(err)
	}
	s := rb.Stats()
	if s.ByKind["whitelist"] == 0 || s.ByKind["gate"] == 0 ||
		s.ByKind["attr-exists"] == 0 || s.ByKind["attr-value"] == 0 ||
		s.ByKind["blacklist"] == 0 {
		t.Fatalf("seed rulebase missing kinds: %+v", s.ByKind)
	}
	// Ambiguous single-token heads must not become whitelists for two types.
	targets := map[string]map[string]bool{}
	for _, r := range rb.Active(core.Whitelist) {
		if targets[r.Source] == nil {
			targets[r.Source] = map[string]bool{}
		}
		targets[r.Source][r.TargetType] = true
		if len(targets[r.Source]) > 1 {
			t.Fatalf("ambiguous seed whitelist %q targets %v", r.Source, targets[r.Source])
		}
	}
}

func TestE1Small(t *testing.T) {
	rep := E1(ClassifyOptions{Seed: 5, NumTypes: 60, TrainSize: 3000, TestSize: 1200})
	if len(rep.Rows) != 3 {
		t.Fatalf("E1 should compare 3 configurations: %v", rep.Rows)
	}
	if rep.ID != "E1" || rep.PaperClaim == "" {
		t.Fatal("report metadata missing")
	}
}

func TestE2Small(t *testing.T) {
	rep := E2(SynonymOptions{Seed: 5, CorpusSize: 4000, MaxIter: 5})
	if len(rep.Rows) != len(synInputs) {
		t.Fatalf("one row per input pattern expected: %d vs %d", len(rep.Rows), len(synInputs))
	}
	// The shape thresholds are calibrated for the default corpus size; at
	// reduced scale just require that a solid majority of patterns found
	// synonyms and the failure case stayed a failure.
	found := 0
	for _, row := range rep.Rows {
		if row[2] != "0" {
			found++
		}
	}
	if found < 15 {
		t.Fatalf("only %d/%d patterns found synonyms at reduced scale", found, len(synInputs))
	}
	last := rep.Rows[len(rep.Rows)-1]
	if last[2] != "0" {
		t.Fatalf("the no-match pattern should find nothing: %v", last)
	}
}

func TestE3Small(t *testing.T) {
	rep := E3(RuleGenOptions{Seed: 5, NumTypes: 40, TrainSize: 3000, TestSize: 1500, MinSupport: 0.05})
	if len(rep.Rows) < 8 {
		t.Fatalf("E3 table incomplete: %v", rep.Rows)
	}
}

func TestE4Small(t *testing.T) {
	rep := E4(ExecOptions{Seed: 5, NumTypes: 40, RuleCount: 2000, ItemCount: 300})
	if len(rep.Rows) != 5 {
		t.Fatalf("E4 should measure 5 execution strategies: %v", rep.Rows)
	}
	// The 10x speedup threshold needs the full 20k-rule scale; at any scale
	// the executors must agree and indexing must not be slower.
	if len(rep.Findings) == 0 || !strings.Contains(rep.Findings[0], "agree") || !strings.Contains(rep.Findings[0], "true") {
		t.Fatalf("executors must agree: %v", rep.Findings)
	}
}

func TestE5Small(t *testing.T) {
	rep := E5(ExecOptions{Seed: 5})
	if !rep.ShapeOK {
		t.Fatalf("E5 must hold: %v", rep.Rows)
	}
}

func TestE6Small(t *testing.T) {
	rep := E6(EvalOptions{Seed: 5, NumTypes: 40, CorpusSize: 2000, Validation: 300, SamplePerRule: 8})
	if !rep.ShapeOK {
		t.Fatalf("E6 shape should hold at reduced scale: %v\n%v", rep.Findings, rep.Rows)
	}
}

func TestE7Small(t *testing.T) {
	rep := E7(SisterOptions{Seed: 5, NumTypes: 40, TrainSize: 2500, TestSize: 1000})
	if !rep.ShapeOK {
		t.Fatalf("E7 shape should hold: %v\n%v", rep.Findings, rep.Rows)
	}
}

func TestE8Small(t *testing.T) {
	rep := E8(SisterOptions{Seed: 5, NumTypes: 40})
	if !rep.ShapeOK {
		t.Fatalf("E8 shape should hold: %v\n%v", rep.Findings, rep.Rows)
	}
}

func TestE9Small(t *testing.T) {
	rep := E9(SisterOptions{Seed: 5})
	if !rep.ShapeOK {
		t.Fatalf("E9 must hold: %v", rep.Rows)
	}
}

func TestE10Small(t *testing.T) {
	rep := E10(ClassifyOptions{Seed: 5, NumTypes: 60, TrainSize: 2500, TestSize: 1000})
	if len(rep.Rows) != 4 {
		t.Fatalf("E10 should report 4 stages: %v", rep.Rows)
	}
	// The tweetbeat drill is scale-independent and must always appear.
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "tweetbeat") {
			found = true
		}
	}
	if !found {
		t.Fatalf("tweetbeat finding missing: %v", rep.Findings)
	}
}

func TestE11Small(t *testing.T) {
	rep := E11(ExecOptions{Seed: 5, NumTypes: 40, RuleCount: 1500})
	if !rep.ShapeOK {
		t.Fatalf("E11 shape should hold at reduced scale: %v\n%v", rep.Findings, rep.Rows)
	}
}

func TestByID(t *testing.T) {
	if ByID("E99", 1) != nil {
		t.Fatal("unknown id should return nil")
	}
	// Cheap one to verify the dispatch wiring.
	rep := ByID("E9", 1)
	if rep == nil || rep.ID != "E9" {
		t.Fatal("ByID dispatch broken")
	}
}

func TestReportMarkdown(t *testing.T) {
	rep := &Report{
		ID: "EX", Title: "test", PaperClaim: "claim",
		Headers: []string{"a", "b"},
		ShapeOK: true,
		Notes:   "n",
	}
	rep.AddRow("x", 1.5)
	rep.Findingf("finding %d", 7)
	md := rep.Markdown()
	for _, want := range []string{"## EX", "claim", "| a | b |", "| x | 1.500 |", "finding 7", "REPRODUCED"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	rep.ShapeOK = false
	if !strings.Contains(rep.Markdown(), "NOT reproduced") {
		t.Fatal("failure rendering missing")
	}
}

func TestRenderMarkdownSummary(t *testing.T) {
	md := RenderMarkdown([]*Report{
		{ID: "A", ShapeOK: true},
		{ID: "B", ShapeOK: false},
	})
	if !strings.Contains(md, "1/2 experiment shapes reproduced") {
		t.Fatalf("summary wrong:\n%s", md[:200])
	}
}

func TestAddRowTypes(t *testing.T) {
	rep := &Report{}
	rep.AddRow("s", 1, int64(2), 3.25, true, []int{1})
	row := rep.Rows[0]
	if row[0] != "s" || row[1] != "1" || row[2] != "2" || row[3] != "3.250" || row[4] != "true" {
		t.Fatalf("row rendering: %v", row)
	}
}
