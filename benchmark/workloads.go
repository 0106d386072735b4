package main

// workload is one row of the benchmark: what the system under test is, and
// what traffic the harness sends it. The names and reasons are repeated in
// BENCHMARK.json (TestNamesMatchBenchmarkJSON keeps them equal).
type workload struct {
	Name string
	Why  string
	// SUT is the only part of a workload the system under test sees.
	SUT sutConfig
	// ReqItems is the batch / request size; HotShare the fraction of items
	// drawn from the hot pool; MutPerSec the analyst's mutation rate.
	ReqItems  int
	HotShare  float64
	MutPerSec int
}

var workloads = []workload{
	{
		Name:     "batch_full",
		Why:      "ProcessBatch, trained ensemble, 128 unique items per batch: learn (kNN most of it) is ~85-90% of the work",
		SUT:      sutConfig{Trained: true},
		ReqItems: 128, MutPerSec: 4,
	},
	{
		Name:     "batch_rules",
		Why:      "ProcessBatch, untrained (rules-only row), 1000-item batches: batch matcher, vote/accounting, audit and Acquire rebuilds are the whole cost",
		SUT:      sutConfig{},
		ReqItems: 1000, MutPerSec: 4,
	},
	{
		Name:     "serve_repeat",
		Why:      "sharded tier, trained, 16-item requests, 90% Zipf(1.1) repeats: the verdict cache does its job but skips only the rule stage",
		SUT:      sutConfig{Trained: true, Tier: true, Cache: true},
		ReqItems: 16, HotShare: 0.9, MutPerSec: 2,
	},
	{
		Name:     "serve_mutating",
		Why:      "sharded tier, untrained, 64 unique items per request (0% hits: the miss tax), WAL attached, 10 mutations/s: writes beside reads",
		SUT:      sutConfig{Tier: true, Cache: true, Persist: true},
		ReqItems: 64, MutPerSec: 10,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clients is the number of closed-loop callers: the batch path has one caller
// whose ProcessBatch fans out to P workers; the tier has P callers, each
// waiting for its reply before sending the next request.
func (w *workload) clients(p int) int {
	if w.SUT.Tier {
		return p
	}
	return 1
}
