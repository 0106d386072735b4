// Command chimera runs the Figure-2 classification pipeline over a stream of
// generated batches, printing the per-batch precision estimates, decline
// rates and analyst interventions — a miniature of the production system's
// operating log. Batch 3 is a drift episode (late-epoch vocabulary from a
// brand-new vendor) that demonstrates detection, scale-down and repair.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/experiments"
)

// seedRules installs the analyst seed rulebase (see experiments.SeedRules).
func seedRules(cat *repro.Catalog, rb *repro.Rulebase) error {
	return experiments.SeedRules(cat, rb, "ana")
}

func main() {
	var (
		seed         = flag.Uint64("seed", 42, "deterministic seed")
		types        = flag.Int("types", 120, "taxonomy size")
		trainSize    = flag.Int("train", 10000, "bootstrap training items")
		batches      = flag.Int("batches", 5, "number of incoming batches")
		batchSize    = flag.Int("batch-size", 2000, "items per batch")
		metrics      = flag.String("metrics", "", `dump the metric snapshot after the run: "json" or "prom"`)
		profile      = flag.Bool("profile", false, "print the per-batch stage timing tree after the run")
		health       = flag.Int("health", 0, "print the top-N telemetry-ranked rule-health entries after the run")
		serveFor     = flag.Duration("serve", 0, "after the batch loop, run the concurrent serving drill through the sharded tier for this long (0 = off)")
		shards       = flag.Int("shards", 1, "shards of the scatter-gather tier the serving drill runs through (requires -serve; >= 1)")
		serveCli     = flag.Int("serve-clients", 4, "concurrent catalog clients in the serving drill")
		serveMut     = flag.Int("serve-mutations", 50, "rule mutations per second during the serving drill")
		chaos        = flag.Bool("chaos", false, "inject deterministic seeded faults (handler latency, shard-0 stalls, rebuild stalls and failures) during the serving drill, and shrink the shard queues to force transient overload")
		deadline     = flag.Duration("deadline", 0, "per-batch caller deadline in the serving drill (0 = none)")
		retry        = flag.Int("retry", 0, "max retry-with-backoff attempts for shed submissions in the serving drill (0 = no retries)")
		cacheCap     = flag.Int("cache", 0, "decision-cache capacity: memoize whole decisions by (item fingerprint, rulebase state, model generation); the batch loop and the serving drill share the one cache (0 = off)")
		opsAddr      = flag.String("ops", "", `serve the live-ops HTTP surface (/metrics, /healthz, /readyz, /decisions, /decisions/export, /snapshot, /debug/pprof) on this address for the duration of the run (e.g. "127.0.0.1:6060" or ":0")`)
		opsLinger    = flag.Duration("ops-linger", 0, "keep the ops server (and the process) up this long after the run finishes, so scrapers can read the final state (requires -ops)")
		auditTail    = flag.Int("audit", 0, "print the last N decision-provenance records as NDJSON after the run")
		auditEach    = flag.Int("audit-sample", 0, "capture 1-in-N classified decisions in the provenance ring (0 = default stride; declines, degraded service and serve failures are always captured)")
		rebuildP     = flag.Float64("chaos-rebuild-p", 0.05, "snapshot-rebuild failure probability injected under -chaos")
		persistDir   = flag.String("persist-dir", "", "durable rulebase store directory: restore the rulebase from it at startup (skipping the analyst seed when state exists), write-ahead-log every mutation, and compact a snapshot at exit")
		persistFsync = flag.Bool("persist-fsync", true, "fsync every WAL append in the durable store (requires -persist-dir; disable only for throwaway runs)")
		persistDrill = flag.Bool("persist-drill", false, "after the run, prove the durability contract live: mutate a store-attached rulebase, kill it without a parting snapshot, restore, and require byte-identical verdicts")
		decisionsOut = flag.String("decisions-out", "", "export the retained decision-provenance ring to this file as NDJSON at the end of the run (atomic write)")
	)
	flag.Parse()
	if *metrics != "" && *metrics != "json" && *metrics != "prom" {
		fmt.Fprintf(os.Stderr, "-metrics must be \"json\" or \"prom\", got %q\n", *metrics)
		os.Exit(2)
	}
	shardsSet := false
	flag.Visit(func(f *flag.Flag) { shardsSet = shardsSet || f.Name == "shards" })
	if *serveFor <= 0 && (*chaos || *deadline > 0 || *retry > 0 || shardsSet) {
		fmt.Fprintln(os.Stderr, "-chaos, -deadline, -retry and -shards only apply to the serving drill; set -serve too")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	if *retry < 0 {
		fmt.Fprintf(os.Stderr, "-retry must be >= 0, got %d\n", *retry)
		os.Exit(2)
	}
	if *cacheCap < 0 {
		fmt.Fprintf(os.Stderr, "-cache must be >= 0, got %d\n", *cacheCap)
		os.Exit(2)
	}
	if *opsLinger > 0 && *opsAddr == "" {
		fmt.Fprintln(os.Stderr, "-ops-linger only applies to the ops server; set -ops too")
		os.Exit(2)
	}
	if *rebuildP < 0 || *rebuildP > 1 {
		fmt.Fprintf(os.Stderr, "-chaos-rebuild-p must be in [0,1], got %g\n", *rebuildP)
		os.Exit(2)
	}
	if *auditTail < 0 || *auditEach < 0 {
		fmt.Fprintln(os.Stderr, "-audit and -audit-sample must be >= 0")
		os.Exit(2)
	}

	cat := repro.NewCatalog(repro.CatalogConfig{Seed: *seed, NumTypes: *types, ZipfS: 1.3})
	p := repro.NewPipeline(repro.PipelineConfig{
		Seed:          *seed,
		CacheCapacity: *cacheCap,
		Audit:         repro.NewAuditLog(repro.AuditConfig{SampleEvery: *auditEach}),
	})

	var opsSrv *repro.OpsServer
	if *opsAddr != "" {
		srv, err := repro.NewOpsServer(opsOptions(p))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ops server: %v\n", err)
			os.Exit(1)
		}
		addr, err := srv.Start(*opsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ops server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("ops: listening on %s\n", addr)
		opsSrv = srv
	}

	// The durable store is wired before any rule lands in the rulebase:
	// Restore first (so existing state wins over the analyst seed), then
	// Attach (so every later mutation — seed included — hits the WAL).
	var store *repro.PersistStore
	restoredRules := false
	if *persistDir != "" {
		st, err := repro.OpenPersist(repro.PersistOptions{Dir: *persistDir, Fsync: *persistFsync, Obs: p.Obs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "persist: %v\n", err)
			os.Exit(1)
		}
		stats, err := st.Restore(p.Rules)
		if err != nil {
			fmt.Fprintf(os.Stderr, "persist restore: %v\n", err)
			os.Exit(1)
		}
		if stats.Version > 0 {
			restoredRules = true
			fmt.Printf("persist: restored rulebase version %d from %s (snapshot v%d + %d WAL records replayed)\n",
				stats.Version, *persistDir, stats.SnapshotVersion, stats.Replayed)
		}
		if err := st.Attach(p.Rules); err != nil {
			fmt.Fprintf(os.Stderr, "persist attach: %v\n", err)
			os.Exit(1)
		}
		store = st
	}

	fmt.Printf("bootstrapping: %d types, %d training items\n", *types, *trainSize)
	p.Train(cat.LabeledData(*trainSize))
	if restoredRules {
		fmt.Printf("persist: skipping analyst seed (%d restored rules)\n", p.Rules.Len())
	} else if err := seedRules(cat, p.Rules); err != nil {
		fmt.Fprintf(os.Stderr, "seeding rules: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("initial state: %s\n\n", p.Describe())
	fmt.Printf("%-8s %-28s %9s %9s %9s %9s  %s\n",
		"batch", "source", "est prec", "true prec", "recall", "declined", "actions")

	for i := 0; i < *batches; i++ {
		spec := repro.BatchSpec{Size: *batchSize, Epoch: i / 2}
		source := fmt.Sprintf("epoch %d mixed vendors", spec.Epoch)
		if i == 3 {
			spec.Epoch, spec.Vendor = 3, "brand-new-vendor"
			source = "epoch 3 NEW vendor (drift)"
		}
		batch := cat.GenerateBatch(spec)
		res := p.ProcessBatch(batch)
		truePrec, rec := res.TruePrecisionRecall()
		rep, err := p.EvaluateAndImprove(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "evaluation: %v\n", err)
			os.Exit(1)
		}

		actions := fmt.Sprintf("%d patch rules, %d relabeled", len(rep.NewRuleIDs), rep.Relabeled)
		if !rep.PassedGate {
			// First-responder drill: scale down the degraded types, note it.
			flagged := repro.FlaggedFrom(res, repro.CorrectByGroundTruth)
			for _, ty := range repro.DegradedTypes(flagged, 10) {
				if _, err := p.ScaleDownType(ty, "ana", "auto scale-down"); err == nil {
					actions += fmt.Sprintf(", scaled down %q", ty)
				}
			}
		}
		fmt.Printf("%-8d %-28s %9.3f %9.3f %9.3f %9.3f  %s\n",
			i, source, rep.EstPrecision, truePrec, rec, res.DeclineRate(), actions)
	}
	fmt.Printf("\nfinal state: %s\n", p.Describe())
	fmt.Printf("precision history: %v\n", p.PrecisionHistory())
	printCacheStats("cache", p.CacheStats())

	if *serveFor > 0 {
		o := drillOptions{
			window:   *serveFor,
			clients:  *serveCli,
			mutPerS:  *serveMut,
			seed:     *seed,
			chaos:    *chaos,
			rebuildP: *rebuildP,
			deadline: *deadline,
			retry:    *retry,
			shards:   *shards,
		}
		tierDrill(cat, p, o)
	}

	if *persistDrill {
		persistRestartDrill(cat, p)
	}

	// Decision provenance: the per-path/outcome breakdown is exact (sampled-out
	// decisions are still counted), the tail is whatever the ring retained.
	fmt.Printf("\n== decision paths ==\n%s", repro.FormatDecisionBreakdown(p.Audit.Breakdown()))
	fmt.Printf("audit: %d captured, %d sampled out, %d offered (ring capacity %d, 1-in-%d)\n",
		p.Audit.Captured(), p.Audit.SampledOut(), p.Audit.Offered(),
		p.Audit.Capacity(), p.Audit.SampleEvery())
	if *auditTail > 0 {
		fmt.Printf("\n== decision tail (last %d) ==\n", *auditTail)
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range p.Audit.Tail(*auditTail) {
			_ = enc.Encode(rec)
		}
	}

	if *decisionsOut != "" {
		n, err := repro.ExportDecisions(*decisionsOut, p.Audit, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decisions export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("decisions: exported %d records to %s\n", n, *decisionsOut)
	}

	if *profile {
		fmt.Printf("\n== per-batch stage timings ==\n%s", p.Trace.Render())
	}
	if *health > 0 {
		report := p.RuleHealth(0.92)
		if len(report) > *health {
			report = report[:*health]
		}
		fmt.Printf("\n== rule health (unhealthiest first) ==\n")
		fmt.Printf("%-10s %-14s %8s %10s %6s  %s\n", "rule", "kind", "fired", "effective", "conf", "issues")
		for _, h := range report {
			fmt.Printf("%-10s %-14s %8d %10d %6.2f  %v\n",
				h.RuleID, h.Kind, h.Fired, h.Effective, h.Confidence, h.Issues)
		}
	}
	if *metrics != "" {
		snap := p.Obs.Snapshot()
		fmt.Printf("\n== metrics ==\n")
		if *metrics == "prom" {
			fmt.Print(snap.PrometheusText())
		} else {
			data, err := json.MarshalIndent(snap, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "marshaling metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(data))
		}
	}

	if store != nil {
		// Compact at exit: fold the run's WAL into one snapshot so the next
		// start restores without a replay. Durability never depends on this —
		// a kill before here replays the WAL instead.
		if err := store.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "persist snapshot: %v\n", err)
			os.Exit(1)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "persist close: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("persist: rulebase version %d durable in %s\n", p.Rules.Version(), *persistDir)
	}

	if opsSrv != nil {
		if *opsLinger > 0 {
			time.Sleep(*opsLinger)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = opsSrv.Close(ctx)
		cancel()
	}
}

// persistRestartDrill proves the durability contract live: load the
// pipeline's rules into a fresh rulebase, attach it to a store, layer fresh
// mutations on top (so the WAL has a tail), kill the store — Close never
// writes a parting snapshot — then restore into a new rulebase and require
// the same version and byte-identical verdicts over a fresh sample batch.
func persistRestartDrill(cat *repro.Catalog, p *repro.Pipeline) {
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "persist drill: "+format+"\n", args...)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "chimera-persist-drill-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(dir)

	st, err := repro.OpenPersist(repro.PersistOptions{Dir: dir, Fsync: true})
	if err != nil {
		fail("%v", err)
	}
	// A load initializes a fresh rulebase; attaching the loaded rulebase
	// takes the store's baseline snapshot, and the mutations after it land
	// as WAL records recovery must replay.
	state, err := json.Marshal(p.Rules)
	if err != nil {
		fail("marshal: %v", err)
	}
	live := repro.NewRulebase()
	if err := json.Unmarshal(state, live); err != nil {
		fail("load: %v", err)
	}
	if err := st.Attach(live); err != nil {
		fail("attach: %v", err)
	}
	r, err := repro.NewWhitelist("vinyl records?", "vinyl")
	if err != nil {
		fail("%v", err)
	}
	id, err := live.Add(r, "drill")
	if err != nil {
		fail("mutate: %v", err)
	}
	for _, err := range []error{
		live.UpdateConfidence(id, 0.66, "drill"),
		live.Disable(id, "drill", "drill toggle"),
		live.Enable(id, "drill", "drill toggle"),
	} {
		if err != nil {
			fail("mutate: %v", err)
		}
	}
	if err := st.Close(); err != nil { // the kill: WAL tail stays unreplayed
		fail("close: %v", err)
	}

	rst, err := repro.OpenPersist(repro.PersistOptions{Dir: dir})
	if err != nil {
		fail("reopen: %v", err)
	}
	restored := repro.NewRulebase()
	stats, err := rst.Restore(restored)
	if err != nil {
		fail("restore: %v", err)
	}
	if err := rst.Close(); err != nil {
		fail("close after restore: %v", err)
	}

	fmt.Printf("\n== persist restart drill ==\n")
	fmt.Printf("mutated to version %d, killed, restored snapshot v%d + %d WAL records\n",
		live.Version(), stats.SnapshotVersion, stats.Replayed)
	if restored.Version() != live.Version() {
		fail("restored version %d, live version %d", restored.Version(), live.Version())
	}
	liveJSON, err := json.Marshal(live)
	if err != nil {
		fail("%v", err)
	}
	restoredJSON, err := json.Marshal(restored)
	if err != nil {
		fail("%v", err)
	}
	if string(liveJSON) != string(restoredJSON) {
		fail("restored rulebase state (rules + audit log) differs from live")
	}
	items := cat.GenerateBatch(repro.BatchSpec{Size: 200, Epoch: 1})
	liveSnap := repro.BuildServeSnapshot(live, nil)
	restoredSnap := repro.BuildServeSnapshot(restored, nil)
	for i, it := range items {
		if liveSnap.Apply(it).Explain() != restoredSnap.Apply(it).Explain() {
			fail("verdict %d not byte-equal after restore", i)
		}
	}
	fmt.Printf("verdicts byte-equal: %d/%d, rulebase state identical (version, rules, audit log)\n", len(items), len(items))
	fmt.Printf("persist drill: OK\n")
}

// opsShardStatuses holds a func() []repro.ShardStatus while the serving
// drill runs, so the ops health provider can report the tier's state and
// per-shard queue readiness. A typed-nil func means "no drill running".
var opsShardStatuses atomic.Value

func init() { opsShardStatuses.Store((func() []repro.ShardStatus)(nil)) }

// opsOptions wires the ops surface to the pipeline: metrics from its
// registry, decisions from its audit ring, health from its one engine (which
// the serving tier serves from) plus the tier's per-shard queues while the
// drill runs, and /snapshot from a fresh snapshot of that engine and its
// telemetry-ranked rule health.
func opsOptions(p *repro.Pipeline) repro.OpsOptions {
	eng := p.Snapshots()
	return repro.OpsOptions{
		Registry: p.Obs,
		Audit:    p.Audit,
		Health: func() repro.OpsHealthStatus {
			st := repro.OpsHealthStatus{
				Degraded:        eng.Degraded(),
				Ready:           true,
				SnapshotVersion: eng.Current().Version(),
			}
			// /readyz judges per-shard queues: the tier is ready while any
			// shard can absorb traffic.
			if f, _ := opsShardStatuses.Load().(func() []repro.ShardStatus); f != nil {
				for _, ss := range f() {
					st.Shards = append(st.Shards, repro.OpsShardHealth{
						Shard:           ss.Shard,
						Degraded:        ss.Degraded,
						QueueDepth:      ss.QueueDepth,
						QueueCapacity:   ss.QueueCapacity,
						SnapshotVersion: ss.SnapshotVersion,
					})
				}
			}
			if st.Degraded {
				st.Detail = "serving stale snapshot: last rebuild failed"
			}
			return st
		},
		Snapshot: func() repro.OpsSnapshotInfo {
			snap := eng.Acquire()
			ids := snap.ActiveIDs()
			return repro.OpsSnapshotInfo{
				Version:     snap.Version(),
				ActiveRules: len(ids),
				RuleIDs:     ids,
				RuleHealth:  snap.Rules().Health(0.92),
			}
		},
	}
}

// drillOptions bundles the serving-drill knobs.
type drillOptions struct {
	window   time.Duration
	clients  int
	mutPerS  int
	seed     uint64
	chaos    bool
	rebuildP float64
	deadline time.Duration
	retry    int
	shards   int
}

// printCacheStats prints one serve_cache_* summary line; silent when caching
// is disabled (zero capacity).
func printCacheStats(label string, st repro.CacheStats) {
	if st.Capacity == 0 {
		return
	}
	fmt.Printf("%s: %d hits, %d misses, %d coalesced, %d evicted, %d stale drops (hit rate %.1f%%, resident %d/%d)\n",
		label, st.Hits, st.Misses, st.Coalesced, st.Evictions, st.StaleDrops,
		100*st.HitRate(), st.Size, st.Capacity)
}

// tierDrill exercises the pipeline's one serving path under live
// maintenance: clients send catalog batches through a ResilientClient, which
// scatters them across the consistent-hash ring of the sharded tier, while a
// mutator churns the rulebase under the tier's one snapshot engine. Each
// shard is an independent capacity unit (its own worker pool and bounded
// queue), so the summary ends in a per-shard table. The catalog generator is
// not concurrency-safe, so each client cycles its own pre-generated pool.
//
// With -chaos the queues shrink and a seeded injector adds handler latency,
// stalls shard 0's handlers and stalls or fails the engine's rebuilds: shard
// 0 sheds while the other shards' key ranges keep serving, shed items come
// back gate-only, and a failed rebuild degrades the tier (every item
// gate-only) until the recovery line's one clean rebuild un-degrades it.
// -deadline bounds each batch end to end; -retry gives every shard its own
// retry budget.
func tierDrill(cat *repro.Catalog, p *repro.Pipeline, o drillOptions) {
	clients := o.clients
	if clients <= 0 {
		clients = 1
	}
	const poolBatches, poolBatchSize = 8, 100
	pools := make([][][]*repro.Item, clients)
	for c := range pools {
		pools[c] = make([][]*repro.Item, poolBatches)
		for b := range pools[c] {
			pools[c][b] = cat.GenerateBatch(repro.BatchSpec{Size: poolBatchSize, Epoch: 2})
		}
	}

	var inj *repro.FaultInjector
	sopts := repro.ShardedOptions{
		Shards: o.shards,
		// Uniform per-unit capacity: every shard gets the same worker pool
		// and queue, so adding shards adds capacity instead of re-slicing it.
		Workers:    2,
		QueueDepth: 8,
	}
	if o.chaos {
		inj = repro.NewFaultInjector(repro.FaultConfig{
			Seed:            o.seed + 99,
			HandlerLatencyP: 0.05, HandlerLatency: 200 * time.Microsecond,
			// The targeted stall: shard 0's handlers slow to a crawl while
			// the other shards never feel it.
			ShardStallP: 0.6, ShardStall: 2 * time.Millisecond, ShardTarget: 0,
			RebuildStallP: 0.10, RebuildStall: time.Millisecond,
			RebuildErrorP: o.rebuildP,
		})
		sopts.QueueDepth = 2
	}
	if o.retry > 0 {
		// Backoff spans a sub-batch's service time, so a retried shed has a
		// real chance of landing in a freed slot.
		sopts.Retry = &repro.ServeRetryOptions{
			MaxAttempts: o.retry,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    40 * time.Millisecond,
			Seed:        o.seed + 11,
		}
	}
	// The tier serves from the pipeline's one engine and decision cache,
	// whose serve_snapshot_swaps_total and chimera_degraded_* series already
	// count the batch loop's work; the drill reports only its own share.
	swaps := p.Obs.Counter(repro.MetricServeSnapshotSwaps)
	degraded := p.Obs.Counter(repro.MetricDegradedItems)
	swapsBefore, degradedBefore := swaps.Value(), degraded.Value()
	rc := p.NewResilientClient(sopts, inj)
	srv := rc.Tier()
	if inj != nil {
		srv.Engine().SetRebuildFault(inj.RebuildFault)
	}
	cacheBefore := p.CacheStats()
	opsShardStatuses.Store(func() []repro.ShardStatus { return srv.ShardStatuses() })
	defer opsShardStatuses.Store((func() []repro.ShardStatus)(nil))

	deadline := time.Now().Add(o.window)
	var (
		mu       sync.Mutex
		versions = map[uint64]bool{}
		batches  int
		served   int
		expired  int
		failed   int
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := 0; time.Now().Before(deadline); b++ {
				ctx := context.Background()
				cancel := func() {}
				if o.deadline > 0 {
					ctx, cancel = context.WithTimeout(ctx, o.deadline)
				}
				batch := pools[c][b%poolBatches]
				res, err := rc.Process(ctx, batch)
				cancel()
				if errors.Is(err, repro.ErrServeShutdown) {
					return
				}
				mu.Lock()
				if err != nil { // the caller deadline ran out
					expired += len(batch)
				} else {
					batches++
					served += res.Served
					failed += res.Failed // declined or rejected by the tier's shutdown
					for i, e := range res.Errs {
						if e == nil {
							versions[res.Snapshots[i].Version()] = true
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}

	stopMut := make(chan struct{})
	var mutations int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := repro.NewRand(o.seed + 7)
		interval := time.Second
		if o.mutPerS > 0 {
			interval = time.Second / time.Duration(o.mutPerS)
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var disabled []string
		for {
			select {
			case <-stopMut:
				// Leave the rulebase as we found it.
				for _, id := range disabled {
					_ = p.Rules.Enable(id, "drill", "serve drill cleanup")
				}
				return
			case <-tick.C:
				active := p.Rules.Active()
				if len(active) == 0 {
					continue
				}
				r := active[rng.Intn(len(active))]
				switch {
				case len(disabled) > 0 && rng.Intn(3) == 0:
					id := disabled[len(disabled)-1]
					disabled = disabled[:len(disabled)-1]
					_ = p.Rules.Enable(id, "drill", "serve drill")
				case rng.Intn(2) == 0:
					if err := p.Rules.Disable(r.ID, "drill", "serve drill"); err == nil {
						disabled = append(disabled, r.ID)
					}
				default:
					_ = p.Rules.UpdateConfidence(r.ID, 0.5+float64(rng.Intn(50))/100, "drill")
				}
				mutations++
			}
		}
	}()

	time.Sleep(time.Until(deadline))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	close(stopMut)
	wg.Wait()

	// Every shard books its ledger, in items, and its retry counters under
	// its shard label in the pipeline's registry.
	sts := srv.ShardStatuses()
	var shed, shardExpired, attempts, recovered, gaveUp int64
	for _, st := range sts {
		shard := strconv.Itoa(st.Shard)
		shed += st.Shed
		shardExpired += st.Expired
		attempts += p.Obs.Counter(repro.MetricServeRetryAttempts, "shard", shard).Value()
		recovered += p.Obs.Counter(repro.MetricServeRetrySuccess, "shard", shard).Value()
		gaveUp += p.Obs.Counter(repro.MetricServeRetryGiveUp, "shard", shard).Value()
	}
	fmt.Printf("\n== serve drill ==\n")
	fmt.Printf("shards %d, clients %d, mutation target %d/s, window %v\n",
		srv.Shards(), clients, o.mutPerS, o.window)
	fmt.Printf("served: %d batches, %d items (%d gate-only), sheds: %d items, expired: %d items, failed at shutdown: %d items\n",
		batches, served, degraded.Value()-degradedBefore, shed, expired, failed)
	fmt.Printf("mutations applied: %d, snapshot swaps: %d, versions observed: %d, final rulebase version: %d\n",
		mutations, swaps.Value()-swapsBefore, len(versions), p.Rules.Version())
	cache := p.CacheStats()
	cache.Hits -= cacheBefore.Hits
	cache.Misses -= cacheBefore.Misses
	cache.Coalesced -= cacheBefore.Coalesced
	cache.Evictions -= cacheBefore.Evictions
	cache.StaleDrops -= cacheBefore.StaleDrops
	printCacheStats("cache (one, shared by all shards)", cache)
	fmt.Printf("%-6s %9s %9s %8s %8s %7s %9s  %s\n",
		"shard", "routed", "served", "shed", "expired", "queue", "version", "degraded")
	for _, st := range sts {
		fmt.Printf("%-6d %9d %9d %8d %8d %3d/%-3d %9d  %v\n",
			st.Shard, st.Routed, st.Served, st.Shed, st.Expired,
			st.QueueDepth, st.QueueCapacity, st.SnapshotVersion, st.Degraded)
	}
	if o.deadline > 0 {
		fmt.Printf("deadline %v: %d items expired (%d items expired on the shards at submit, in backoff or while queued)\n",
			o.deadline, expired, shardExpired)
	}
	if o.retry > 0 {
		fmt.Printf("retry (max %d, per-shard budgets): %d attempts, %d sheds recovered on retry, %d gave up\n",
			o.retry, attempts, recovered, gaveUp)
	}
	if inj != nil {
		fmt.Printf("chaos: %d faults injected %v, tier degraded: %v\n",
			inj.Total(), inj.Counts(), srv.Degraded())
		// Recovery: with the fault cleared, one clean synchronous rebuild
		// un-degrades the tier (the /healthz flip back the ops drill observes).
		srv.Engine().SetRebuildFault(nil)
		srv.Engine().Acquire()
		fmt.Printf("recovery: tier degraded after clean rebuild: %v\n", srv.Degraded())
	}
}
