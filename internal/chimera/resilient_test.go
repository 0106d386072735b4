package chimera

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fixtureWithObs is fixture with a private registry, so metric assertions do
// not cross tests through the shared default registry.
func fixtureWithObs(t *testing.T, seed uint64, reg *obs.Registry) (*catalog.Catalog, *Pipeline) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
	p := New(Config{Seed: seed, Obs: reg})
	p.Train(cat.LabeledData(2000))
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
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
	return cat, p
}

// forShardCounts runs f once against a 1-shard and once against a 3-shard
// tier: the single-server case is the N = 1 tier, not a second frontend.
func forShardCounts(t *testing.T, f func(t *testing.T, shards int)) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

// mutate adds one whitelist rule (a rulebase version bump).
func mutate(t *testing.T, p *Pipeline, pattern, typ string) {
	t.Helper()
	r, err := core.NewWhitelist(pattern, typ)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Rules.Add(r, "chaos"); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// shardSum sums one shard-labeled counter over the tier's shards.
func shardSum(tier *serve.ShardedServer[Decision], metric string) int64 {
	var n int64
	for i := 0; i < tier.Shards(); i++ {
		n += tier.Registry().Counter(metric, "shard", strconv.Itoa(i)).Value()
	}
	return n
}

// TestClassifyDegradedPropertySubsetOfManualQueue is the degraded-mode
// property test: for any batch, the gate-only path yields exactly one
// decision per item (no silent drops); every decision is either a genuine
// gate-stage decision (gatekeeper or filtered) or a decline with reason
// "degraded"; and the manual-queue delta equals exactly the number of
// declined decisions. Degraded routing is a subset of manual-queue routing,
// never a black hole.
func TestClassifyDegradedPropertySubsetOfManualQueue(t *testing.T) {
	cat, p := fixture(t, 91)
	snap := p.Snapshots().Acquire() // a snapshot current with the rules above
	for _, size := range []int{1, 7, 250, 1000} {
		batch := cat.GenerateBatch(catalog.BatchSpec{Size: size, Epoch: 0})
		before := p.ManualQueue()
		decisions := p.classifyDegraded(context.Background(), snap, batch)
		if len(decisions) != len(batch) {
			t.Fatalf("size %d: %d decisions for %d items — items dropped", size, len(decisions), len(batch))
		}
		declined := 0
		for i, d := range decisions {
			if d.Item != batch[i] {
				t.Fatalf("size %d: decision %d not aligned with its item", size, i)
			}
			switch {
			case !d.Declined && d.Reason == "gatekeeper":
				// Gate decided; full-confidence decision survives degraded mode.
			case d.Declined && strings.HasPrefix(d.Reason, "filtered:"):
				declined++
			case d.Declined && d.Reason == "degraded":
				declined++
			default:
				t.Fatalf("size %d: decision outside the degraded vocabulary: %+v", size, d)
			}
		}
		if got := p.ManualQueue() - before; got != declined {
			t.Fatalf("size %d: manual queue grew by %d, want %d (declined) — degraded decisions must be a subset of manual-queue routing", size, got, declined)
		}
	}
}

// TestClassifyDegradedStageAccounting: degraded declines land in the
// per-stage decision counter under declined:degraded, and item/decline
// totals move exactly as on the full path.
func TestClassifyDegradedStageAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 92, reg)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 0})
	out := p.classifyDegraded(context.Background(), p.Snapshots().Acquire(), batch)
	degraded := 0
	for _, d := range out {
		if d.Declined && d.Reason == "degraded" {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("a mixed batch should leave some items gate-undecided (reason degraded)")
	}
	if got := reg.Counter(MetricDecisions, "stage", "declined:degraded").Value(); got != int64(degraded) {
		t.Fatalf("declined:degraded stage counter = %d, want %d", got, degraded)
	}
	if got := reg.Counter(MetricItems).Value(); got != int64(len(batch)) {
		t.Fatalf("item counter = %d, want %d", got, len(batch))
	}
}

// TestResilientClientDegradesOnSaturation: with every shard's one worker
// parked on injected handler latency and its one queue slot taken, a full
// shard queue after retries gives gate-only answers — Process answers every
// item and never returns ErrQueueFull, in the whole batch or per item.
func TestResilientClientDegradesOnSaturation(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 93, reg)
	forShardCounts(t, func(t *testing.T, shards int) {
		inj := faultinject.New(faultinject.Config{
			Seed: 5, HandlerLatencyP: 1, HandlerLatency: 50 * time.Millisecond,
		})
		rc := p.NewResilientClient(serve.ShardedOptions{
			Shards: shards, Workers: 1, QueueDepth: 1, Obs: obs.NewRegistry(),
			Retry: &serve.RetryOptions{MaxAttempts: 2, BaseDelay: time.Microsecond, Seed: 5},
		}, inj)
		tier := rc.Tier()
		defer tier.Close()

		// Park each shard: its worker on one slow batch (2 × 50ms of injected
		// latency), its single queue slot on a second.
		slow := cat.GenerateBatch(catalog.BatchSpec{Size: 2, Epoch: 0})
		for i := 0; i < shards; i++ {
			srv := tier.Server(i)
			if _, err := srv.Submit(slow); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "worker pick-up", func() bool {
				return tier.Registry().Gauge(serve.MetricShardQueueDepth, "shard", strconv.Itoa(i)).Value() == 0
			})
			if _, err := srv.Submit(slow); err != nil {
				t.Fatal(err)
			}
		}

		batch := cat.GenerateBatch(catalog.BatchSpec{Size: 120, Epoch: 0})
		before := p.ManualQueue()
		degBatches, degItems := reg.Counter(MetricDegradedBatches).Value(), reg.Counter(MetricDegradedItems).Value()
		g, err := rc.Process(context.Background(), batch)
		if err != nil {
			t.Fatalf("Process must not fail on saturation: %v", err)
		}
		if len(g.Results) != len(batch) || g.Served != len(batch) || g.Failed != 0 || g.Err() != nil {
			t.Fatalf("%d results, served %d, failed %d (err %v) for %d items", len(g.Results), g.Served, g.Failed, g.Err(), len(batch))
		}
		version := tier.Engine().Current().Version()
		declined := 0
		for i, d := range g.Results {
			if g.Snapshots[i] == nil || g.Snapshots[i].Version() != version {
				t.Fatalf("item %d: gate-only decision without the tier's snapshot", i)
			}
			if d.Item != batch[i] {
				t.Fatalf("item %d: decision not aligned with its item", i)
			}
			if d.Declined {
				declined++
			}
		}
		if got := p.ManualQueue() - before; got != declined {
			t.Fatalf("manual queue grew by %d, want %d", got, declined)
		}
		if got := reg.Counter(MetricDegradedBatches).Value() - degBatches; got != 1 {
			t.Fatalf("degraded-batch counter moved by %d, want 1", got)
		}
		if got := reg.Counter(MetricDegradedItems).Value() - degItems; got != int64(len(batch)) {
			t.Fatalf("degraded-item counter moved by %d, want %d", got, len(batch))
		}
		if shardSum(tier, serve.MetricRetryAttempts) == 0 || shardSum(tier, serve.MetricShardShed) == 0 {
			t.Fatal("the saturated shards neither shed nor retried — the fallback was not exercised")
		}
		if inj.Total() == 0 {
			t.Fatal("handler latency was never injected")
		}
	})
}

// TestResilientClientDegradesWhenEngineDegraded: a failed snapshot rebuild
// flips the tier's engine to degraded; the client notices, routes around the
// queues entirely, and resumes full service once a rebuild succeeds again.
func TestResilientClientDegradesWhenEngineDegraded(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 94, reg)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 50, Epoch: 0})
	forShardCounts(t, func(t *testing.T, shards int) {
		rc := p.NewResilientClient(serve.ShardedOptions{Shards: shards, Workers: 2, QueueDepth: 8, Obs: obs.NewRegistry()}, nil)
		tier := rc.Tier()
		defer tier.Close()

		inj := faultinject.New(faultinject.Config{Seed: 6, RebuildErrorP: 1})
		tier.Engine().SetRebuildFault(inj.RebuildFault)
		// Mutate so the async loop attempts (and fails) a rebuild.
		mutate(t, p, fmt.Sprintf("satchels? %d", shards), "handbags")
		waitFor(t, "a degraded tier under a p=1 rebuild fault", tier.Degraded)

		degBatches := reg.Counter(MetricDegradedBatches).Value()
		g, err := rc.Process(context.Background(), batch)
		if err != nil || g.Served != len(batch) {
			t.Fatalf("degraded Process: err=%v served=%d", err, g.Served)
		}
		if reg.Counter(MetricDegradedBatches).Value() == degBatches {
			t.Fatal("degraded-batch counter did not move")
		}
		if n := shardSum(tier, serve.MetricShardRouted); n != 0 {
			t.Fatalf("a degraded tier routed %d items to its shards; degraded mode must bypass them", n)
		}

		// Clearing the fault recovers: the next mutation's rebuild succeeds and
		// the client leaves degraded mode.
		tier.Engine().SetRebuildFault(nil)
		mutate(t, p, fmt.Sprintf("totes? %d", shards), "handbags")
		waitFor(t, "recovery after the fault was cleared", func() bool { return !tier.Degraded() })
		degBatches = reg.Counter(MetricDegradedBatches).Value()
		g, err = rc.Process(context.Background(), batch)
		if err != nil || g.Served != len(batch) {
			t.Fatalf("recovered Process: err=%v served=%d", err, g.Served)
		}
		if reg.Counter(MetricDegradedBatches).Value() != degBatches {
			t.Fatal("a recovered tier still answered gate-only")
		}
	})
}

// TestResilientClientDegradedReadsTierSnapshot: degraded decisions come from
// the snapshot the tier serves, the last one its engine published before the
// failed rebuild: neither the snapshot read before the tier started nor the
// rulebase's current state, each one version away from it.
func TestResilientClientDegradedReadsTierSnapshot(t *testing.T) {
	cat, p := provFixture(t, 96, false)
	stale := p.Snapshots().Acquire().Version()
	rc := p.NewResilientClient(serve.ShardedOptions{Shards: 3, Obs: obs.NewRegistry()}, nil)
	tier := rc.Tier()
	defer tier.Close()

	mutate(t, p, "clutch bags?", "handbags")
	waitFor(t, "the tier publishing the mutation", func() bool { return tier.Engine().Current().Version() == p.Rules.Version() })
	tier.Engine().SetRebuildFault(faultinject.New(faultinject.Config{Seed: 7, RebuildErrorP: 1}).RebuildFault)
	mutate(t, p, "hobo bags?", "handbags")
	waitFor(t, "a degraded tier", tier.Degraded)
	version := tier.Engine().Current().Version()
	if version == stale || version == p.Rules.Version() {
		t.Fatalf("tier at %d, pipeline engine at %d, rulebase at %d: the versions must all differ", version, stale, p.Rules.Version())
	}

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 40, Epoch: 1})
	g, err := rc.Process(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if v := g.Snapshots[i].Version(); v != version {
			t.Fatalf("item %d: degraded under snapshot %d, tier serves %d", i, v, version)
		}
	}
	recs := recordsByItem(t, p, obs.PathDegraded)
	if len(recs) != len(items) {
		t.Fatalf("got %d degraded records for %d items", len(recs), len(items))
	}
	for _, it := range items {
		if r := recs[it.ID]; r.SnapshotVersion != version {
			t.Fatalf("item %s: record at snapshot %d, tier serves %d", it.ID, r.SnapshotVersion, version)
		}
	}
}

// TestOneEnginePerPipeline: every tier of a pipeline serves from the
// pipeline's engine, so with ProcessBatch and a tier both serving, a change
// is built and published once; and shutting one of two tiers down leaves the
// other's loop publishing.
func TestOneEnginePerPipeline(t *testing.T) {
	cat, p := fixtureWithObs(t, 98, obs.NewRegistry())
	tier := p.NewShardedServer(serve.ShardedOptions{Shards: 2}, nil)
	defer tier.Close()
	if tier.Engine() != p.Snapshots() {
		t.Fatal("NewShardedServer built a second engine")
	}
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 40, Epoch: 0})
	serveBoth := func() {
		t.Helper()
		p.ProcessBatch(batch)
		tk, err := tier.Submit(batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait().Err(); err != nil {
			t.Fatal(err)
		}
	}
	serveBoth()

	swaps := p.Obs.Counter(serve.MetricSnapshotSwaps)
	before := swaps.Value()
	if err := p.Rules.Disable(p.Rules.Active()[0].ID, "ana", "one build per state"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the tier publishing the disable", func() bool { return tier.Engine().Current().Version() == p.Rules.Version() })
	serveBoth()
	if res := p.ProcessBatch(batch); res.SnapshotVersion != p.Rules.Version() {
		t.Fatalf("ProcessBatch at version %d, rulebase at %d", res.SnapshotVersion, p.Rules.Version())
	}
	if got := swaps.Value() - before; got != 1 {
		t.Fatalf("one disable served by ProcessBatch and a tier published %d snapshots, want 1", got)
	}

	rc := p.NewResilientClient(serve.ShardedOptions{Shards: 3}, nil)
	defer rc.Tier().Close()
	if rc.Tier().Engine() != p.Snapshots() {
		t.Fatal("NewResilientClient built a second engine")
	}
	if err := tier.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	mutate(t, p, "bangles?", "bracelets")
	waitFor(t, "the remaining tier publishing after the other's shutdown", func() bool {
		return rc.Tier().Engine().Current().Version() == p.Rules.Version()
	})
	if _, err := rc.Process(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
}

// TestResilientClientPropagatesRealErrors: shutdown and an expired caller
// context are surfaced, not degraded around — the caller must be able to
// tell "the system answered conservatively" from "the system is gone" or
// "I gave up waiting".
func TestResilientClientPropagatesRealErrors(t *testing.T) {
	reg := obs.NewRegistry()
	cat, p := fixtureWithObs(t, 95, reg)
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 5, Epoch: 0})
	forShardCounts(t, func(t *testing.T, shards int) {
		rc := p.NewResilientClient(serve.ShardedOptions{Shards: shards, Workers: 1, QueueDepth: 4, Obs: obs.NewRegistry()}, nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := rc.Process(ctx, batch); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		rc.Tier().Close()
		if _, err := rc.Process(context.Background(), batch); !errors.Is(err, serve.ErrShutdown) {
			t.Fatalf("got %v, want ErrShutdown", err)
		}
	})
}

// TestResilientClientShutdownLeaksNoGoroutines: once a 3-shard client that
// served traffic is shut down, every goroutine it started — shard workers,
// scatter parts, gathers, the tier engine's rebuild loop — has exited.
func TestResilientClientShutdownLeaksNoGoroutines(t *testing.T) {
	cat, p := fixtureWithObs(t, 97, obs.NewRegistry())
	batch := cat.GenerateBatch(catalog.BatchSpec{Size: 60, Epoch: 0})
	baseline := runtime.NumGoroutine()

	rc := p.NewResilientClient(serve.ShardedOptions{Shards: 3, Obs: obs.NewRegistry()}, nil)
	for i := 0; i < 5; i++ {
		if _, err := rc.Process(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		mutate(t, p, fmt.Sprintf("leak probe %d", i), "rings")
	}
	if err := rc.Tier().Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Shutdown, %d before the client:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
