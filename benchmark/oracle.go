package main

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/obs"
)

// oracle is the reference every decision is compared with: Pipeline.Classify
// (the per-item reference path) on a cache-less, audit-less pipeline that
// holds an equal rulebase — the same prototypes added in the same order, so
// rule IDs agree — and shares the system's ensemble.
type oracle struct {
	pipe *chimera.Pipeline
	mu   sync.Mutex
	memo map[*catalog.Item]chimera.Decision
}

func newOracle(s *sut, rules []*core.Rule) (*oracle, error) {
	p := chimera.New(chimera.Config{
		Seed: pipelineSeed, Workers: 1, Obs: obs.NewRegistry(),
		Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: -1}),
	})
	if err := p.Rules.AddAll(rules, "setup"); err != nil {
		return nil, err
	}
	p.Ensemble = s.pipe.Ensemble
	return &oracle{pipe: p, memo: map[*catalog.Item]chimera.Decision{}}, nil
}

// decide returns the reference decision for it, memoised per item (the
// repeat stream asks for its hot items many times).
func (o *oracle) decide(it *catalog.Item) chimera.Decision {
	o.mu.Lock()
	d, ok := o.memo[it]
	o.mu.Unlock()
	if ok {
		return d
	}
	d = o.pipe.Classify(it)
	o.mu.Lock()
	o.memo[it] = d
	o.mu.Unlock()
	return d
}

// sameDecision compares the fields a caller of the system can see.
func sameDecision(a, b chimera.Decision) bool {
	if a.Type != b.Type || a.Declined != b.Declined || a.Reason != b.Reason ||
		a.Confidence != b.Confidence || len(a.Evidence) != len(b.Evidence) {
		return false
	}
	for i := range a.Evidence {
		if a.Evidence[i] != b.Evidence[i] {
			return false
		}
	}
	return true
}

// passResult is the tally of one fixed-work pass.
type passResult struct {
	attempted  int // items sent
	failed     int // items without a decision, or whose decision differs from the oracle's
	classified int // decisions that name a type
	correct    int // of those, the ones that name the true type
}

func (a *passResult) add(b passResult) {
	a.attempted += b.attempted
	a.failed += b.failed
	a.classified += b.classified
	a.correct += b.correct
}

// checkedPass sends items through call in requests of reqItems and compares
// every decision with the oracle's. References are computed on p goroutines
// (the oracle is not what is being timed).
func checkedPass(call callFunc, o *oracle, items []*catalog.Item, reqItems, p int) passResult {
	refs := make([]chimera.Decision, len(items))
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(items); i += p {
				refs[i] = o.decide(items[i])
			}
		}(g)
	}
	wg.Wait()

	var res passResult
	for lo := 0; lo < len(items); lo += reqItems {
		hi := lo + reqItems
		if hi > len(items) {
			hi = len(items)
		}
		rep := call(items[lo:hi])
		res.attempted += hi - lo
		if len(rep.decisions) != hi-lo {
			res.failed += hi - lo
			continue
		}
		for i, d := range rep.decisions {
			if d.Item == nil { // no decision for this item (its Errs entry was set)
				res.failed++
				continue
			}
			if !sameDecision(d, refs[lo+i]) {
				res.failed++
			}
			if !d.Declined {
				res.classified++
				if d.Type == items[lo+i].TrueType {
					res.correct++
				}
			}
		}
	}
	return res
}
