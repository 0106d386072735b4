package serve

// The sharded chaos harness (run under -race in verify.sh/CI): one shard's
// handlers are stalled via the fault injector's targeted shard stalls AND
// every snapshot rebuild of the tier's one engine fails, while concurrent
// clients keep scattering batches and a mutator churns the rulebase. The
// contract under assault:
//
//   - the stalled shard sheds, but every ticket touching it still resolves
//     (with served items or explicit per-item errors);
//   - the healthy shards' key ranges never feel the stall: zero sheds, zero
//     failures — one bad shard costs its own keys, nothing else;
//   - the failing rebuilds degrade the tier as a whole, and every shard keeps
//     serving the last good snapshot until the next clean rebuild recovers
//     it.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestShardedChaosStallIsolatesOneShard(t *testing.T) {
	const (
		shards  = 4
		target  = 2
		clients = 3
		rounds  = 15
	)
	rb := core.NewRulebase()
	var ids []string
	for i := 0; i < 10; i++ {
		r, err := core.NewWhitelist(fmt.Sprintf("widget%d", i), fmt.Sprintf("type-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		id, err := rb.Add(r, "chaos")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	inj := faultinject.New(faultinject.Config{
		Seed:        77,
		ShardStallP: 1.0, ShardStall: 2 * time.Millisecond, ShardTarget: target,
	})
	reg := obs.NewRegistry()
	srv := NewShardedServer(rb, func(ctx context.Context, snap *Snapshot, it *catalog.Item) string {
		if d := inj.ShardDelay(ShardFromContext(ctx)); d > 0 {
			time.Sleep(d)
		}
		return snap.Apply(it).Explain()
	}, ShardedOptions{
		Shards: shards, RouteKey: routeByID, Workers: 1, QueueDepth: 1,
		Debounce: 100 * time.Microsecond, Obs: reg,
	})
	defer srv.Close()
	// Every rebuild fails: the tier must pin its last good snapshot and flag
	// degraded, and keep serving from it on every shard.
	lastGood := rb.Version()
	srv.Engine().SetRebuildFault(func() (time.Duration, error) {
		return 0, errSimRebuild
	})

	// A mutator churns the rulebase so rebuilds (and the target's rebuild
	// failures) actually happen during the run.
	stop := make(chan struct{})
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := ids[i%len(ids)]
			if i%2 == 0 {
				_ = rb.Disable(id, "chaos", "churn")
			} else {
				_ = rb.Enable(id, "chaos", "churn")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Healthy-shard clients submit synchronously (submit → wait → next), so
	// with a dedicated worker per shard their queues can never overflow: any
	// shed on a healthy shard is an isolation leak, not scheduling noise.
	// The stalled shard's client bursts, forcing sheds there.
	var wg sync.WaitGroup
	healthyFailures := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			healthy := []int{0, 1, 3}[c%3]
			items := itemsForShard(t, srv, healthy, 4)
			for round := 0; round < rounds; round++ {
				tk, err := srv.Submit(items)
				if err != nil {
					healthyFailures[c] = err
					return
				}
				res := tk.Wait()
				if res.Err() != nil {
					healthyFailures[c] = res.Err()
					return
				}
				for _, snap := range res.Snapshots {
					if snap.Version() != lastGood {
						healthyFailures[c] = fmt.Errorf("served version %d while every rebuild failed, last good is %d",
							snap.Version(), lastGood)
						return
					}
				}
			}
		}(c)
	}
	wg.Add(1)
	var stalledSubmitted, stalledServed, stalledFailed int
	go func() {
		defer wg.Done()
		items := itemsForShard(t, srv, target, 3)
		var tickets []*ShardedTicket[string]
		for round := 0; round < rounds; round++ {
			tk, err := srv.Submit(items)
			if err != nil {
				t.Errorf("stalled-shard submit %d: %v", round, err)
				continue
			}
			stalledSubmitted += len(items)
			tickets = append(tickets, tk)
		}
		for _, tk := range tickets {
			res := tk.Wait()
			stalledServed += res.Served
			stalledFailed += res.Failed
			for i, e := range res.Errs {
				if e == nil {
					continue
				}
				if res.ShardOf[i] != target {
					t.Errorf("failure %v attributed to shard %d, only %d is stalled", e, res.ShardOf[i], target)
				}
				if !errors.Is(e, ErrQueueFull) {
					t.Errorf("stalled shard failed an item with %v, want ErrQueueFull", e)
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	mwg.Wait()

	for c, err := range healthyFailures {
		if err != nil {
			t.Fatalf("healthy-shard client %d failed: %v — stall leaked across shards", c, err)
		}
	}
	if stalledServed+stalledFailed != stalledSubmitted {
		t.Fatalf("stalled shard accounting leak: %d served + %d failed != %d submitted",
			stalledServed, stalledFailed, stalledSubmitted)
	}
	if stalledFailed == 0 {
		t.Fatal("stalled shard never shed — the chaos exercised nothing")
	}

	// The failing rebuilds flag the tier (poll briefly — the rebuild loop is
	// async) and pin every shard on the last good version; sheds stay
	// confined to the stalled shard.
	nudgeUntil := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !done(); {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			_ = rb.Disable(ids[0], "chaos", "nudge")
			_ = rb.Enable(ids[0], "chaos", "nudge")
			time.Sleep(time.Millisecond)
		}
	}
	nudgeUntil("tier never degraded despite failing every rebuild", srv.Degraded)
	for _, st := range srv.ShardStatuses() {
		if !st.Degraded || st.SnapshotVersion != lastGood {
			t.Fatalf("shard %d reports degraded=%v version=%d, want degraded on last good version %d",
				st.Shard, st.Degraded, st.SnapshotVersion, lastGood)
		}
	}
	for _, sd := range []int{0, 1, 3} {
		if got := reg.Counter(MetricShardShed, "shard", strconv.Itoa(sd)).Value(); got != 0 {
			t.Fatalf("healthy shard %d shed %d items — overload leaked across shards", sd, got)
		}
	}
	if got := reg.Counter(MetricShardShed, "shard", strconv.Itoa(target)).Value(); got == 0 {
		t.Fatal("stalled shard's shed counter is zero despite failures")
	}
	if cnt := inj.Counts()["shard_stall"]; cnt == 0 {
		t.Fatal("injector never fired a shard stall")
	}

	// Recovery: the next clean rebuild un-degrades the tier and brings every
	// shard to the rulebase's version.
	srv.Engine().SetRebuildFault(nil)
	nudgeUntil("tier still degraded after the rebuild fault cleared", func() bool {
		return !srv.Degraded() && srv.Engine().Current().Version() == rb.Version()
	})
}
