package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/tokenize"
)

// worldSeed is the constant everything structural is generated from. The
// run's --seed never reaches this file: catalog, rules, training data,
// validation set, item pools and the mutation ring are the same on every run
// of every commit, so shard balance, rule cost and quality do not move with
// the seed (rule 2 in README.md).
const worldSeed = 20150531

// Sizes of the fixed world.
const (
	worldTypes    = 250   // catalog.Config.NumTypes
	worldRules    = 10000 // active rules in rulebase_std, exactly
	worldTrain    = 2000  // train_std
	worldValid    = 1000  // validation set (quality + oracle pass)
	worldPool     = 32768 // unique-item pool: 4x the serving tier's total cache capacity at P=2
	worldHot      = 400   // hot pool the repeat stream draws from, in rank order
	worldRing     = 64    // rules the analyst mutator walks round
	rulesPerType  = 48    // cap on generated rules per type, so head types do not take them all
	ruleChunk     = 4096  // titles generated per round while mining rule shapes
	ruleChunksMax = 200   // a world that needs more than this is a bug, not bad luck
)

// World is the fixed universe every workload runs in.
type World struct {
	// Rules are uncompiled-state prototypes: IDs empty, never added to a
	// rulebase. Set-up clones them (core.Rule is mutated by Rulebase.Add).
	Rules []*core.Rule
	// Ring indexes Rules: the generated whitelist rules the mutator toggles.
	Ring  []int
	Train []*catalog.Item
	Valid []*catalog.Item
	Pool  []*catalog.Item
	Hot   []*catalog.Item
}

// BuildWorld generates the world. It takes no argument on purpose.
func BuildWorld() (*World, error) {
	cat := catalog.New(catalog.Config{Seed: worldSeed, NumTypes: worldTypes})
	w := &World{
		Train: cat.LabeledData(worldTrain),
		Valid: cat.GenerateBatch(catalog.BatchSpec{Size: worldValid}),
		Pool:  cat.GenerateBatch(catalog.BatchSpec{Size: worldPool}),
		Hot:   cat.GenerateBatch(catalog.BatchSpec{Size: worldHot}),
	}
	for _, set := range [][]*catalog.Item{w.Valid, w.Pool, w.Hot} {
		for _, it := range set {
			it.TitleTokens()
			it.Fingerprint()
		}
	}

	// rulebase_std: the analyst seed plus head-anchored whitelist rules mined
	// from generated titles, "<qualifier>.*<head term>" — the paper's
	// "diamond.*trio sets?" shape.
	seedRB := core.NewRulebase()
	if err := experiments.SeedRules(cat, seedRB, "world"); err != nil {
		return nil, fmt.Errorf("world: seed rules: %w", err)
	}
	for _, r := range seedRB.All() {
		c := r.Clone()
		c.ID, c.Author, c.CreatedAt, c.UpdatedAt = "", "", 0, 0
		w.Rules = append(w.Rules, c)
	}
	nSeed := len(w.Rules)
	if nSeed >= worldRules {
		return nil, fmt.Errorf("world: %d seed rules leave no room below %d", nSeed, worldRules)
	}

	terms := map[string][][]string{} // type -> head/synonym token sequences, longest first
	for _, ty := range cat.Types() {
		var seqs [][]string
		for _, t := range append(append([]catalog.Term(nil), ty.HeadTerms...), ty.Synonyms...) {
			if t.EmergeEpoch == 0 && plainWords(t.Text) {
				seqs = append(seqs, strings.Fields(t.Text))
			}
		}
		sort.SliceStable(seqs, func(i, j int) bool { return len(seqs[i]) > len(seqs[j]) })
		terms[ty.Name] = seqs
	}
	seen := map[string]bool{}
	perType := map[string]int{}
	for chunk := 0; len(w.Rules) < worldRules; chunk++ {
		if chunk == ruleChunksMax {
			return nil, fmt.Errorf("world: only %d rules after %d titles", len(w.Rules), chunk*ruleChunk)
		}
		for _, it := range cat.GenerateBatch(catalog.BatchSpec{Size: ruleChunk}) {
			if len(w.Rules) == worldRules {
				break
			}
			toks := it.TitleTokens()
			term, at := findTerm(toks, terms[it.TrueType])
			for _, q := range toks[:at] {
				if len(w.Rules) == worldRules || perType[it.TrueType] == rulesPerType {
					break
				}
				if !plainWords(q) || tokenize.DefaultStopwords[q] {
					continue
				}
				src := q + ".*" + term
				key := src + "\x00" + it.TrueType
				if seen[key] {
					continue
				}
				seen[key] = true
				r, err := core.NewWhitelist(src, it.TrueType)
				if err != nil {
					continue
				}
				r.Provenance = "bench-world"
				perType[it.TrueType]++
				w.Rules = append(w.Rules, r)
			}
		}
	}

	// The ring: generated rules only, evenly spaced, so toggling them never
	// removes a seed rule the quality numbers rest on.
	step := (worldRules - nSeed) / worldRing
	for i := 0; i < worldRing; i++ {
		w.Ring = append(w.Ring, nSeed+i*step)
	}
	return w, nil
}

// plainWords reports whether s is made of lower-case letters and single
// spaces only — text the pattern language reads as literal tokens.
func plainWords(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && r != ' ' {
			return false
		}
	}
	return true
}

// findTerm returns the first (longest-first) term whose tokens occur
// contiguously in toks and the position of its first token; at is 0 (no
// qualifiers) when none does.
func findTerm(toks []string, seqs [][]string) (term string, at int) {
	for _, seq := range seqs {
		for i := 0; i+len(seq) <= len(toks); i++ {
			match := true
			for k, t := range seq {
				if toks[i+k] != t {
					match = false
					break
				}
			}
			if match {
				return strings.Join(seq, " "), i
			}
		}
	}
	return "", 0
}

// CloneRules returns fresh rule objects for one set-up.
func (w *World) CloneRules() []*core.Rule {
	out := make([]*core.Rule, len(w.Rules))
	for i, r := range w.Rules {
		out[i] = r.Clone()
	}
	return out
}

// Digest fingerprints everything in the world; two calls to BuildWorld must
// agree on it byte for byte.
func (w *World) Digest() uint64 {
	h := fnv.New64a()
	for _, r := range w.Rules {
		fmt.Fprintf(h, "%d|%s|%s|%s|%s|%v|%v\n", r.Kind, r.Source, r.TargetType, r.Attr, r.Value, r.AllowedTypes, r.Confidence)
	}
	fmt.Fprintf(h, "ring%v\n", w.Ring)
	for _, set := range [][]*catalog.Item{w.Train, w.Valid, w.Pool, w.Hot} {
		fmt.Fprintf(h, "set%d\n", len(set))
		for _, it := range set {
			fmt.Fprintf(h, "%s|%s|%s|%x\n", it.ID, it.TrueType, it.Vendor, it.Fingerprint())
		}
	}
	return h.Sum64()
}
