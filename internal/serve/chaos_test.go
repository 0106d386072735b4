package serve

// The chaos harness: the serving layer under injected faults. A fleet of
// clients submits batches — plain and deadline-bound, every shed retried
// with backoff inside the server — while
// handler latency is injected into the workers, snapshot rebuilds stall and
// fail at random, a mutator churns the rulebase, and the server is finally
// shut down with a short drain deadline under load. The invariants:
//
//   - every submitted ticket resolves exactly once, with one of
//     {result, ErrQueueFull, ErrShutdown, ErrDeclined, ctx error};
//   - accounting closes: served + shed + declined + expired + rejected
//     submissions == attempted submissions — nothing is silently dropped —
//     and the server's ledger books exactly those outcomes, in items;
//   - every served batch carries a coherent snapshot (results aligned with
//     items, sorted ActiveIDs, never nil) even when its rebuild was faulty.
//
// Run under -race in verify.sh/CI, this doubles as the race check for the
// whole resilience path (fault hooks, retry loop, deadline accounting).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestChaosEveryTicketResolvesExactlyOnce(t *testing.T) {
	rb := core.NewRulebase()
	var ids []string
	for i := 0; i < 12; i++ {
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
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	defer eng.Close()

	inj := faultinject.New(faultinject.Config{
		Seed:            1234,
		HandlerLatencyP: 0.4, HandlerLatency: 400 * time.Microsecond,
		RebuildStallP: 0.3, RebuildStall: 500 * time.Microsecond,
		RebuildErrorP: 0.2,
	})
	eng.SetRebuildFault(inj.RebuildFault)

	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		if d := inj.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
		snap.Apply(it)
		return it.ID
		// Queue shallower than the client fleet: with 3 in flight and 2
		// queued, the 6th concurrent submit sheds — overload is reachable.
	}, ServerOptions{Workers: 3, QueueDepth: 2, Obs: reg, Retry: &RetryOptions{
		MaxAttempts: 2, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond, Seed: 1,
	}})

	// Rule churn for the whole run: the rebuild path (and its injected
	// faults) stays hot.
	mutStop := make(chan struct{})
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for i := 0; ; i++ {
			select {
			case <-mutStop:
				return
			default:
			}
			// Alternating waves of disables and enables, so every pass over
			// the id list really mutates (and really kicks the rebuild loop).
			id := ids[i%len(ids)]
			if (i/len(ids))%2 == 0 {
				_ = rb.Disable(id, "chaos", "churn")
			} else {
				_ = rb.Enable(id, "chaos", "churn")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const clients = 6
	const perClient = 80
	var (
		attempted, served, shed, declined, expired, rejected atomic.Int64
		resolvedTwice                                        atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				items := make([]*catalog.Item, 4)
				for k := range items {
					items[k] = oneItem(fmt.Sprintf("c%d-%d-%d", c, i, k))[0]
				}
				attempted.Add(1)

				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%3 == 1 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%5)*time.Millisecond)
				}
				tk, err := srv.SubmitCtx(ctx, items)

				if err != nil {
					cancel()
					switch {
					case errors.Is(err, ErrQueueFull): // covers ErrRetryBudget
						shed.Add(1)
					case errors.Is(err, ErrShutdown):
						rejected.Add(1)
					case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
						expired.Add(1)
					default:
						t.Errorf("submit returned unexpected error %v", err)
					}
					continue
				}

				out, snap, werr := tk.Wait()
				cancel()
				// A ticket must already be resolved after Wait; Done must be
				// closed and a second Wait must agree (exactly-once).
				select {
				case <-tk.Done():
				default:
					resolvedTwice.Add(1) // Done not closed: resolution torn
				}
				out2, snap2, werr2 := tk.Wait()
				if len(out2) != len(out) || snap2 != snap || werr2 != werr {
					resolvedTwice.Add(1)
				}

				switch {
				case werr == nil:
					served.Add(1)
					if snap == nil || len(out) != len(items) {
						t.Errorf("served batch with torn result: snap=%v out=%d items=%d", snap, len(out), len(items))
					} else {
						act := snap.ActiveIDs()
						if !sort.StringsAreSorted(act) {
							t.Errorf("snapshot ActiveIDs not sorted: %v", act)
						}
					}
				case errors.Is(werr, ErrDeclined):
					declined.Add(1)
				case errors.Is(werr, context.DeadlineExceeded), errors.Is(werr, context.Canceled):
					expired.Add(1)
				default:
					t.Errorf("ticket resolved with unexpected error %v", werr)
				}
			}
		}(c)
	}

	// Shut down with a tiny drain deadline while (likely) still loaded, then
	// let the remaining clients run into ErrShutdown.
	time.Sleep(25 * time.Millisecond)
	sctx, scancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
	_ = srv.Shutdown(sctx)
	scancel()
	wg.Wait()
	close(mutStop)
	mutWG.Wait()

	if n := resolvedTwice.Load(); n != 0 {
		t.Fatalf("%d tickets resolved inconsistently", n)
	}
	total := served.Load() + shed.Load() + declined.Load() + expired.Load() + rejected.Load()
	if total != attempted.Load() {
		t.Fatalf("accounting leak: served %d + shed %d + declined %d + expired %d + rejected %d = %d != attempted %d",
			served.Load(), shed.Load(), declined.Load(), expired.Load(), rejected.Load(), total, attempted.Load())
	}
	if served.Load() == 0 {
		t.Fatal("chaos run served nothing — the harness is not exercising the happy path")
	}
	if inj.Total() == 0 {
		t.Fatal("chaos run injected no faults — the harness is not exercising failure")
	}
	// The ledger agrees with the harness's own books, four items a batch.
	for name, want := range map[string]int64{
		MetricShardRouted: attempted.Load(), MetricShardServed: served.Load(), MetricShardShed: shed.Load(),
		MetricShardDeclined: declined.Load(), MetricShardExpired: expired.Load(), MetricShardRejected: rejected.Load(),
	} {
		if got := reg.Counter(name, "shard", "0").Value(); got != 4*want {
			t.Fatalf("%s = %d, want %d (4 × %d observed batches)", name, got, 4*want, want)
		}
	}
	if v := reg.Gauge(MetricShardQueueDepth, "shard", "0").Value(); v < 0 {
		t.Fatalf("queue depth gauge negative after chaos: %v", v)
	}
	t.Logf("chaos: attempted=%d served=%d shed=%d declined=%d expired=%d rejected=%d faults=%v",
		attempted.Load(), served.Load(), shed.Load(), declined.Load(), expired.Load(), rejected.Load(), inj.Counts())
}
