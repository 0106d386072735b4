package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// explainHandler is the canonical sharded test handler: the verdict's
// explanation string, so equivalence checks are byte-level.
func explainHandler(_ context.Context, snap *Snapshot, it *catalog.Item) string {
	return snap.Apply(it).Explain()
}

// routeByID routes on the item ID — lets tests aim items at chosen shards.
func routeByID(it *catalog.Item) string { return it.ID }

// itemsForShard fabricates n items that all route to the given shard under
// routeByID on srv's router (srv must route by ID).
func itemsForShard[R any](t *testing.T, srv *ShardedServer[R], shard, n int) []*catalog.Item {
	t.Helper()
	var out []*catalog.Item
	for i := 0; len(out) < n; i++ {
		id := fmt.Sprintf("aim-%d-%d", shard, i)
		if it := (&catalog.Item{ID: id, Attrs: map[string]string{"Title": "acme widget"}}); srv.ShardFor(it) == shard {
			out = append(out, it)
		}
		if i > 100000 {
			t.Fatalf("could not fabricate %d items for shard %d", n, shard)
		}
	}
	return out
}

// TestShardedEquivalenceProperty (satellite): for any seeded catalog batch
// and rule population, the sharded scatter-gather verdicts are byte-identical
// to a single Engine's snapshot AND to a fresh core executor's ApplyBatch
// over the same active rules. Sharding partitions load, never semantics.
func TestShardedEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 25})
		rb := buildPropertyRulebase(t, cat, seed)
		items := cat.GenerateBatch(catalog.BatchSpec{Size: 60, Epoch: int(seed % 3)})

		single := BuildSnapshot(rb, obs.NewRegistry())
		batch := core.NewIndexedExecutor(rb.Active(
			core.Whitelist, core.Blacklist, core.AttrExists, core.AttrValue,
			core.TypeRestrict)).ApplyBatch(items, 2)

		srv := NewShardedServer(rb, explainHandler, ShardedOptions{
			Shards: 1 + int(seed%5), Obs: obs.NewRegistry(),
		})
		defer srv.Close()
		tk, err := srv.Submit(items)
		if err != nil {
			t.Fatalf("seed %d: submit: %v", seed, err)
		}
		res := tk.Wait()
		if res.Err() != nil || res.Served != len(items) {
			t.Fatalf("seed %d: gather failed: %v (served %d/%d)", seed, res.Err(), res.Served, len(items))
		}
		for i, it := range items {
			want := single.Apply(it).Explain()
			if res.Results[i] != want {
				t.Logf("seed %d item %d: sharded %q != engine %q", seed, i, res.Results[i], want)
				return false
			}
			if got := batch[i].Explain(); got != want {
				t.Logf("seed %d item %d: ApplyBatch %q != engine %q", seed, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMergePreservesOrderAndRouting: the gather is positionally
// aligned with the submitted batch and ShardOf agrees with the router.
func TestShardedMergePreservesOrderAndRouting(t *testing.T) {
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	srv := NewShardedServer(rb, func(_ context.Context, _ *Snapshot, it *catalog.Item) string {
		return "saw:" + it.ID
	}, ShardedOptions{Shards: 4, RouteKey: routeByID, Obs: obs.NewRegistry()})
	defer srv.Close()

	var items []*catalog.Item
	for i := 0; i < 40; i++ {
		items = append(items, &catalog.Item{ID: strconv.Itoa(i), Attrs: map[string]string{"Title": "widget"}})
	}
	tk, err := srv.Submit(items)
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err() != nil {
		t.Fatalf("gather error: %v", res.Err())
	}
	fanout := map[int]bool{}
	for i, it := range items {
		if want := "saw:" + it.ID; res.Results[i] != want {
			t.Fatalf("position %d holds %q, want %q — merge lost input order", i, res.Results[i], want)
		}
		if want := srv.ShardFor(it); res.ShardOf[i] != want {
			t.Fatalf("item %s reported shard %d, router says %d", it.ID, res.ShardOf[i], want)
		}
		fanout[res.ShardOf[i]] = true
	}
	if len(fanout) < 2 {
		t.Fatalf("40 distinct keys landed on %d shard(s) — test exercises no scatter", len(fanout))
	}
	if got := srv.Registry().Counter(MetricScatterBatches).Value(); got != 1 {
		t.Fatalf("scatter batch counter = %d, want 1", got)
	}
	var routed, served int64
	for sh := 0; sh < 4; sh++ {
		l := readLedger(srv.Registry(), sh)
		routed += l.routed
		served += l.served
	}
	if routed != 40 || served != 40 {
		t.Fatalf("shard ledgers booked %d routed, %d served; want all 40 items on both", routed, served)
	}
}

// TestShardedPartialFailureIsolatesShard: a stalled, overflowing shard fails
// only its own items — the rest of the batch serves, the gather reports
// ErrPartial, and the shed lands on the stalled shard's counter alone.
func TestShardedPartialFailureIsolatesShard(t *testing.T) {
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	const target = 1
	gate := make(chan struct{})
	pickedUp := make(chan struct{}, 64)
	srv := NewShardedServer(rb, func(ctx context.Context, _ *Snapshot, it *catalog.Item) string {
		if ShardFromContext(ctx) == target {
			pickedUp <- struct{}{}
			<-gate
		}
		return it.ID
	}, ShardedOptions{Shards: 3, RouteKey: routeByID, Workers: 1, QueueDepth: 1, Obs: obs.NewRegistry()})
	defer srv.Close()

	// Occupy the target shard: one in the worker, one in the queue.
	busy, err := srv.Submit(itemsForShard(t, srv, target, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-pickedUp
	queued, err := srv.Submit(itemsForShard(t, srv, target, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Parts are submitted to shards asynchronously: wait until the second
	// request actually occupies the queue slot, or the mixed batch below
	// could take it instead (and then block on the gate we only open after
	// its Wait — a deadlock, not a shed).
	depth := srv.Registry().Gauge(MetricShardQueueDepth, "shard", strconv.Itoa(target))
	for wait := time.Now().Add(5 * time.Second); depth.Value() != 1; {
		if time.Now().After(wait) {
			t.Fatal("queued request never reached the target shard's queue")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// A mixed batch: the target shard's slice must shed, the others serve.
	items := append(itemsForShard(t, srv, 0, 3), itemsForShard(t, srv, target, 2)...)
	items = append(items, itemsForShard(t, srv, 2, 3)...)
	tk, err := srv.Submit(items)
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if !errors.Is(res.Err(), ErrPartial) {
		t.Fatalf("gather error = %v, want ErrPartial", res.Err())
	}
	if res.Served != 6 || res.Failed != 2 {
		t.Fatalf("served %d failed %d, want 6/2", res.Served, res.Failed)
	}
	for i := range items {
		onTarget := res.ShardOf[i] == target
		if e := res.Errs[i]; onTarget {
			if !errors.Is(e, ErrQueueFull) {
				t.Fatalf("stalled shard item %d got %v, want ErrQueueFull", i, e)
			}
		} else if e != nil {
			t.Fatalf("healthy shard %d item failed: %v", res.ShardOf[i], e)
		}
	}
	if got := srv.Registry().Counter(MetricShardShed, "shard", strconv.Itoa(target)).Value(); got != 2 {
		t.Fatalf("target shard shed counter = %d, want 2", got)
	}
	for _, sd := range []int{0, 2} {
		if got := srv.Registry().Counter(MetricShardShed, "shard", strconv.Itoa(sd)).Value(); got != 0 {
			t.Fatalf("healthy shard %d shed counter = %d, want 0", sd, got)
		}
	}
	if got := srv.Registry().Counter(MetricScatterPartial).Value(); got != 1 {
		t.Fatalf("scatter partial counter = %d, want 1", got)
	}
	close(gate)
	busy.Wait()
	queued.Wait()
}

// TestShardedOneRebuildPerMutation pins the one-engine contract: whatever the
// shard count, a mutation costs one snapshot build, and with no mutation in
// flight every part of a gather was classified under the same snapshot.
func TestShardedOneRebuildPerMutation(t *testing.T) {
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	id, err := rb.Add(r, "test")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	srv := NewShardedServer(rb, explainHandler, ShardedOptions{
		Shards: shards, RouteKey: routeByID, Obs: obs.NewRegistry(),
	})
	defer srv.Close()
	swaps := func() int64 {
		n := srv.Registry().Counter(MetricSnapshotSwaps).Value()
		for i := 0; i < srv.Shards(); i++ {
			n += srv.ShardRegistry(i).Counter(MetricSnapshotSwaps).Value()
		}
		return n
	}
	before := swaps()
	if before != 1 {
		t.Fatalf("building a %d-shard tier published %d snapshots, want 1", shards, before)
	}
	if err := rb.UpdateConfidence(id, 0.9, "test"); err != nil {
		t.Fatal(err)
	}
	for wait := time.Now().Add(5 * time.Second); swaps() == before; {
		if time.Now().After(wait) {
			t.Fatal("mutation never reached a published snapshot")
		}
		time.Sleep(100 * time.Microsecond)
	}

	var items []*catalog.Item
	for sd := 0; sd < shards; sd++ {
		items = append(items, itemsForShard(t, srv, sd, 2)...)
	}
	tk, err := srv.Submit(items)
	if err != nil {
		t.Fatal(err)
	}
	res := tk.Wait()
	if res.Err() != nil {
		t.Fatalf("gather error: %v", res.Err())
	}
	for i, snap := range res.Snapshots {
		if snap != res.Snapshots[0] {
			t.Fatalf("item %d (shard %d) served under snapshot v%d, item 0 under v%d — parts of one gather disagree",
				i, res.ShardOf[i], snap.Version(), res.Snapshots[0].Version())
		}
	}
	if got := res.Snapshots[0].Version(); got != rb.Version() {
		t.Fatalf("gather served version %d, rulebase at %d", got, rb.Version())
	}
	if got := swaps() - before; got != 1 {
		t.Fatalf("one mutation cost %d snapshot builds across %d shards, want 1", got, shards)
	}
}

// TestShardedSubmitAfterShutdown: the tier rejects new scatters with
// ErrShutdown once Shutdown began, and Shutdown is idempotent.
func TestShardedSubmitAfterShutdown(t *testing.T) {
	rb := core.NewRulebase()
	r, _ := core.NewWhitelist("widget", "gadget")
	_, _ = rb.Add(r, "test")
	srv := NewShardedServer(rb, explainHandler, ShardedOptions{Shards: 2, Obs: obs.NewRegistry()})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := srv.Submit(oneItem("late")); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after shutdown = %v, want ErrShutdown", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestGatherResultErrSemantics: nil when clean, the uniform error when every
// item failed the same way, ErrPartial on any mix.
func TestGatherResultErrSemantics(t *testing.T) {
	clean := &GatherResult[string]{Errs: []error{nil, nil}}
	if err := clean.Err(); err != nil {
		t.Fatalf("clean gather Err = %v", err)
	}
	uniform := &GatherResult[string]{Errs: []error{ErrQueueFull, ErrQueueFull}, Failed: 2}
	if err := uniform.Err(); !errors.Is(err, ErrQueueFull) || errors.Is(err, ErrPartial) {
		t.Fatalf("uniform gather Err = %v, want ErrQueueFull", err)
	}
	mixed := &GatherResult[string]{Errs: []error{nil, ErrQueueFull}, Served: 1, Failed: 1}
	if err := mixed.Err(); !errors.Is(err, ErrPartial) {
		t.Fatalf("mixed gather Err = %v, want ErrPartial", err)
	}
	twoKinds := &GatherResult[string]{Errs: []error{ErrShutdown, ErrQueueFull}, Failed: 2}
	if err := twoKinds.Err(); !errors.Is(err, ErrPartial) {
		t.Fatalf("two-error gather Err = %v, want ErrPartial", err)
	}
}

func TestShardFromContext(t *testing.T) {
	if got := ShardFromContext(context.Background()); got != -1 {
		t.Fatalf("unsharded context reports shard %d, want -1", got)
	}
	if got := ShardFromContext(WithShard(context.Background(), 3)); got != 3 {
		t.Fatalf("WithShard roundtrip = %d, want 3", got)
	}
}

// TestShardStatusesRefreshGauges: ShardStatuses reports live per-shard state,
// and the labeled queue gauges in the tier's registry agree with it.
func TestShardStatusesRefreshGauges(t *testing.T) {
	rb := core.NewRulebase()
	r, _ := core.NewWhitelist("widget", "gadget")
	_, _ = rb.Add(r, "test")
	reg := obs.NewRegistry()
	srv := NewShardedServer(rb, explainHandler, ShardedOptions{
		Shards: 3, QueueDepth: 7, Obs: reg,
	})
	defer srv.Close()

	tk, err := srv.Submit(oneItem("one"))
	if err != nil {
		t.Fatal(err)
	}
	tk.Wait()

	sts := srv.ShardStatuses()
	if len(sts) != 3 {
		t.Fatalf("got %d statuses, want 3", len(sts))
	}
	var routed int64
	for i, st := range sts {
		if st.Shard != i {
			t.Fatalf("status %d reports shard %d", i, st.Shard)
		}
		if st.QueueCapacity != 7 {
			t.Fatalf("shard %d capacity %d, want 7", i, st.QueueCapacity)
		}
		if st.Degraded {
			t.Fatalf("healthy shard %d reports degraded", i)
		}
		if st.SnapshotVersion != rb.Version() {
			t.Fatalf("shard %d serves version %d, rulebase at %d", i, st.SnapshotVersion, rb.Version())
		}
		label := strconv.Itoa(i)
		if got := reg.Gauge(MetricShardQueueCap, "shard", label).Value(); got != 7 {
			t.Fatalf("shard %d capacity gauge %v, want 7", i, got)
		}
		routed += st.Routed
	}
	// One engine, so one version gauge: the engine's own, in the same registry.
	if got := reg.Gauge(MetricSnapshotVersion).Value(); got != float64(rb.Version()) {
		t.Fatalf("tier version gauge %v, want %d", got, rb.Version())
	}
	if routed != 1 {
		t.Fatalf("statuses account %d routed items, want 1", routed)
	}
}

// TestShardedRetrierRecoversTransientShed: with Retry configured, a shard's
// transient overflow is absorbed by that shard's retry loop instead of
// surfacing as a shed — the retry telemetry lands under that shard's label,
// and the ledger books the recovered submission served, not shed.
func TestShardedRetrierRecoversTransientShed(t *testing.T) {
	rb := core.NewRulebase()
	r, _ := core.NewWhitelist("widget", "gadget")
	_, _ = rb.Add(r, "test")
	const target = 0
	gate := make(chan struct{})
	pickedUp := make(chan struct{}, 4)
	srv := NewShardedServer(rb, func(ctx context.Context, _ *Snapshot, it *catalog.Item) string {
		if ShardFromContext(ctx) == target {
			select {
			case pickedUp <- struct{}{}:
				<-gate
			default: // after release: serve straight through
			}
		}
		return it.ID
	}, ShardedOptions{
		Shards: 2, RouteKey: routeByID, Workers: 1, QueueDepth: 1, Obs: obs.NewRegistry(),
		Retry: &RetryOptions{MaxAttempts: 50, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 9},
	})
	defer srv.Close()

	busy, err := srv.Submit(itemsForShard(t, srv, target, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-pickedUp
	queued, err := srv.Submit(itemsForShard(t, srv, target, 1))
	if err != nil {
		t.Fatal(err)
	}
	// This one overflows the stalled shard; its retrier must carry it until
	// the gate opens rather than failing the gather.
	overflow, err := srv.Submit(itemsForShard(t, srv, target, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Parts reach the shard asynchronously: hold the gate until the loser of
	// the queue-slot race has demonstrably shed and re-attempted (a fixed
	// sleep would race the runPart goroutines' scheduling).
	label := strconv.Itoa(target)
	attempts := srv.Registry().Counter(MetricRetryAttempts, "shard", label)
	for wait := time.Now().Add(5 * time.Second); attempts.Value() == 0; {
		if time.Now().After(wait) {
			t.Fatal("no retry attempt observed while the target shard was wedged")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(gate)
	for _, tk := range []*ShardedTicket[string]{busy, queued, overflow} {
		if res := tk.Wait(); res.Err() != nil {
			t.Fatalf("gather failed despite retrier: %v", res.Err())
		}
	}
	if got := attempts.Value(); got == 0 {
		t.Fatal("retrier never attempted — the test exercised nothing")
	}
	if got := srv.Registry().Counter(MetricRetrySuccess, "shard", label).Value(); got == 0 {
		t.Fatal("retrier never succeeded, yet the gather served")
	}
	if got := srv.Registry().Counter(MetricShardShed, "shard", label).Value(); got != 0 {
		t.Fatalf("target shard shed counter = %d, want 0: every shed was recovered", got)
	}
}
