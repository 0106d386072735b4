package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// pipelineSeed is what chimera.Config.Seed is set to on every run: the
// program under test never receives the run's --seed.
const pipelineSeed = 1

// cachePerShard is the verdict-cache capacity of each serving shard.
const cachePerShard = 4096

// sutConfig is all the system under test is told about a workload. It has no
// name and no seed on purpose (TestSUTNeverSeesSeedOrName).
type sutConfig struct {
	Trained bool // Train(train_std); false is the paper's rules-only row
	Tier    bool // ShardedServer (P shards x 1 worker) instead of ProcessBatch
	Cache   bool // verdict cache on the tier's shards
	Persist bool // persist.Store attached (Fsync off) before the rules go in
}

// sut is one built system under test.
type sut struct {
	cfg     sutConfig
	p       int
	pipe    *chimera.Pipeline
	tier    *serve.ShardedServer[chimera.Decision]
	store   *persist.Store
	walDir  string
	ringIDs []string
}

// reply is what the harness keeps of one completed batch or request.
type reply struct {
	decisions []chimera.Decision
	// minVersion is the lowest snapshot version any item was served at.
	minVersion uint64
	// shardVersion[s] is the version shard s served its part at (0: shard
	// not touched). The batch path has one pseudo-shard.
	shardVersion []uint64
	// failed counts items that got no decision (shed, expired, declined by a
	// drain, rejected).
	failed int
}

// callFunc sends one batch or request through the workload's path and waits
// for the reply. Tests wrap it to inject failures.
type callFunc func(items []*catalog.Item) reply

// buildSUT is the timed set-up: chimera.New, persist.Open/Attach where used,
// Rulebase.Add x 10,000, Train where used, start the tier, first snapshot on
// every shard. rules must be fresh clones (Add mutates them); walDir is only
// touched when cfg.Persist.
func buildSUT(cfg sutConfig, w *World, rules []*core.Rule, p int, walDir string) (*sut, error) {
	s := &sut{cfg: cfg, p: p}
	s.pipe = chimera.New(chimera.Config{Seed: pipelineSeed, Workers: p, Obs: obs.NewRegistry()})
	if cfg.Persist {
		st, err := persist.Open(persist.Options{Dir: walDir, Fsync: false, Obs: s.pipe.Obs})
		if err != nil {
			return nil, err
		}
		s.store, s.walDir = st, walDir
		if err := st.Attach(s.pipe.Rules); err != nil {
			s.Close()
			return nil, err
		}
	}
	ids := make([]string, len(rules))
	for i, r := range rules {
		id, err := s.pipe.Rules.Add(r, "setup")
		if err != nil {
			s.Close()
			return nil, err
		}
		ids[i] = id
	}
	for _, i := range w.Ring {
		s.ringIDs = append(s.ringIDs, ids[i])
	}
	if cfg.Persist {
		// Compact after the bulk load, as an operator would: it also pins
		// where auto-compaction (every 1,024 appends) falls, which would
		// otherwise land inside some windows and not others.
		if err := s.store.Snapshot(); err != nil {
			s.Close()
			return nil, err
		}
	}
	if cfg.Trained {
		s.pipe.Train(w.Train)
	}
	if cfg.Tier {
		opts := serve.ShardedOptions{Shards: p, Workers: 1}
		if cfg.Cache {
			opts.Cache = serve.CacheConfig{Capacity: cachePerShard}
		}
		// NewShardedServer builds every shard's first snapshot before it returns.
		s.tier = s.pipe.NewShardedServer(opts, nil)
	} else {
		s.pipe.Snapshots().Acquire()
	}
	return s, nil
}

// Close tears the system down: tier drained and stopped, store closed, WAL
// directory removed.
func (s *sut) Close() {
	if s.tier != nil {
		s.tier.Close()
	}
	s.pipe.Close()
	if s.store != nil {
		_ = s.store.Close() // nothing is read back from this WAL
		_ = os.RemoveAll(s.walDir)
	}
}

// call is the workload's own path: ProcessBatch, or SubmitCtx + Wait.
func (s *sut) call(items []*catalog.Item) reply {
	if s.tier == nil {
		res := s.pipe.ProcessBatch(items)
		return reply{decisions: res.Decisions, minVersion: res.SnapshotVersion, shardVersion: []uint64{res.SnapshotVersion}}
	}
	rep := reply{shardVersion: make([]uint64, s.p)}
	tk, err := s.tier.SubmitCtx(context.Background(), items)
	if err != nil {
		rep.failed = len(items)
		return rep
	}
	g := tk.Wait()
	rep.decisions, rep.failed = g.Results, g.Failed
	for i, snap := range g.Snapshots {
		if g.Errs[i] != nil {
			continue
		}
		v := snap.Version()
		if rep.minVersion == 0 || v < rep.minVersion {
			rep.minVersion = v
		}
		rep.shardVersion[g.ShardOf[i]] = v
	}
	return rep
}

// registries lists every registry the system writes counters into: the
// pipeline's (which also holds the tier's labeled families) and each shard's
// private one.
func (s *sut) registries() []*obs.Registry {
	regs := []*obs.Registry{s.pipe.Obs}
	if s.tier != nil {
		for i := 0; i < s.tier.Shards(); i++ {
			regs = append(regs, s.tier.ShardRegistry(i))
		}
	}
	return regs
}

// timedSetups builds the system from scratch at least minSetups times, until
// setupBudget is spent or maxSetups is reached, and returns the last one
// built with every set-up time. Earlier builds are torn down untimed.
func timedSetups(cfg sutConfig, w *World, p int, walDir func() string, minSetups, maxSetups int, budget time.Duration) (*sut, []float64, error) {
	var times []float64
	var spent time.Duration
	var last *sut
	for len(times) < minSetups || (spent < budget && len(times) < maxSetups) {
		if last != nil {
			last.Close()
		}
		rules := w.CloneRules()
		dir := walDir()
		start := time.Now()
		s, err := buildSUT(cfg, w, rules, p, dir)
		d := time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		last, spent = s, spent+d
		times = append(times, d.Seconds())
	}
	return last, times, nil
}
