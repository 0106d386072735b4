package serve

// The deterministic simulation/soak harness for the sharded serving tier.
// Each run drives a seeded workload — interleaved scatter-gather
// classifications, rulebase mutations, rebuild faults on the tier's engine
// (stalls and outright failures), targeted shard handler stalls, and caller
// deadline expiries — for K virtual seconds (rounds), and asserts the global
// invariants the tier promises:
//
//   - every scatter ticket resolves exactly once, every item with either a
//     verdict or one of the explicit failure errors — never silence;
//   - sharded verdicts are byte-identical (Verdict.Explain) to a
//     separate oracle engine's verdicts at the same rulebase version, even
//     while the tier lags behind mutations or serves a stale snapshot after
//     an injected rebuild failure;
//   - accounting closes per shard: routed == served + shed + expired +
//     declined + rejected, and the harness's own books match the
//     serve_shard_* counters exactly.
//
// The workload is seeded (catalog, mutation schedule, fault schedule,
// deadline draws all derive from one seed), so a failure reproduces; the
// invariants are schedule-free, so the test is sound under -race on any
// box. Three distinct seeds run in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/randx"
)

// errSimRebuild is the sim's injected rebuild failure.
var errSimRebuild = errors.New("sim: injected rebuild failure")

// simTally is the harness's per-shard accounting book.
type simTally struct {
	routed, served, shed, expired, declined, rejected int64
}

func TestSimShardedSoakEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 17, 1009} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			simRun(t, seed)
		})
	}
}

// cacheSimSeed runs its soak with the tier's verdict cache enabled and one
// duplicated submission per round, so the equivalence oracle also covers the
// cached read path (hits, single-flight coalescing and stale drops under
// mutation churn all feed the same byte-equality check).
const cacheSimSeed = 1009

func simRun(t *testing.T, seed uint64) {
	const (
		shards     = 4
		rounds     = 18 // virtual seconds
		clients    = 3
		batchesPer = 2
		batchSize  = 12
		mutations  = 5 // per round
	)
	rng := randx.New(seed).Split("sim")
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 25})
	rb := buildPropertyRulebase(t, cat, seed)
	var ruleIDs []string
	for _, r := range rb.All() {
		ruleIDs = append(ruleIDs, r.ID)
	}

	// The oracle engine: passive (synchronous Acquire), recording an
	// immutable snapshot of EVERY rulebase version the run passes through.
	// A tier serving any version — current, debounce-stale, or pinned by a
	// failed rebuild — is then comparable against the oracle's snapshot at
	// that same version.
	oracle := NewEngine(rb, EngineOptions{Obs: obs.NewRegistry()})
	oracleSnaps := map[uint64]*Snapshot{}
	record := func() {
		snap := oracle.Acquire()
		oracleSnaps[snap.Version()] = snap
	}
	record()

	// Targeted handler stalls on shard 0 for the whole run (the
	// fault-injectable shard stall of internal/faultinject); rebuild faults
	// rotate per round below.
	inj := faultinject.New(faultinject.Config{
		Seed:        seed + 1,
		ShardStallP: 0.35, ShardStall: 300 * time.Microsecond, ShardTarget: 0,
	})

	cacheOn := seed == cacheSimSeed
	var cacheCfg CacheConfig
	if cacheOn {
		cacheCfg = CacheConfig{Capacity: 128}
	}
	reg := obs.NewRegistry()
	srv := NewShardedServer(rb, func(ctx context.Context, snap *Snapshot, it *catalog.Item) string {
		if d := inj.ShardDelay(ShardFromContext(ctx)); d > 0 {
			time.Sleep(d)
		}
		// ApplyCached == Apply when the seed runs uncached (nil cache).
		return snap.ApplyCached(it).Explain()
	}, ShardedOptions{
		Shards:  shards,
		Workers: 1,
		// Shallow queues so overload (sheds) is reachable when stalls pile
		// work onto one shard — partial failure is part of the soak.
		QueueDepth: 2,
		Debounce:   100 * time.Microsecond,
		Obs:        reg,
		Cache:      cacheCfg,
	})

	var books [shards]simTally
	type submission struct {
		items  []*catalog.Item
		ticket *ShardedTicket[string]
		cancel context.CancelFunc
	}

	for round := 0; round < rounds; round++ {
		// Fault schedule for this virtual second: maybe fault the engine's
		// rebuild path (stall or hard failure), maybe run clean.
		srv.Engine().SetRebuildFault(nil)
		if rng.Bool(0.5) {
			if rng.Bool(0.5) {
				srv.Engine().SetRebuildFault(func() (time.Duration, error) {
					return 200 * time.Microsecond, nil
				})
			} else {
				srv.Engine().SetRebuildFault(func() (time.Duration, error) {
					return 0, errSimRebuild
				})
			}
		}

		// Pre-generate the round's batches (the catalog generator is not
		// concurrency-safe), with seeded deadline draws: roughly one in four
		// submissions is deadline-bound tightly enough that it may expire
		// while queued.
		subs := make([]*submission, 0, clients*batchesPer)
		for c := 0; c < clients; c++ {
			for b := 0; b < batchesPer; b++ {
				subs = append(subs, &submission{
					items: cat.GenerateBatch(catalog.BatchSpec{Size: batchSize, Epoch: round % 3}),
				})
			}
		}
		if cacheOn && len(subs) >= 2 {
			// Re-submit the same items (same pointers) in a second concurrent
			// submission: repeat traffic for the cache, racing lookups for the
			// single-flight path, and a concurrency check on the items' lazy
			// fingerprints — all still oracle-checked below.
			subs[1].items = subs[0].items
		}
		deadlines := make([]time.Duration, len(subs))
		for i := range deadlines {
			if rng.Bool(0.25) {
				deadlines[i] = time.Duration(1+rng.Intn(1500)) * time.Microsecond
			}
		}

		// Scatter the round's submissions from concurrent clients while the
		// driver mutates the rulebase underneath them.
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for b := 0; b < batchesPer; b++ {
					sub := subs[c*batchesPer+b]
					ctx := context.Background()
					sub.cancel = func() {}
					if d := deadlines[c*batchesPer+b]; d > 0 {
						ctx, sub.cancel = context.WithTimeout(ctx, d)
					}
					tk, err := srv.SubmitCtx(ctx, sub.items)
					if err != nil {
						// Only an already-expired submit ctx may fail here.
						if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
							t.Errorf("seed %d round %d: unexpected submit error %v", seed, round, err)
						}
						sub.cancel()
						continue
					}
					sub.ticket = tk
				}
			}(c)
		}

		// Interleaved maintenance: every mutation is immediately followed by
		// an oracle record, so any version a shard can possibly serve is in
		// oracleSnaps before this round's verdicts are compared.
		for m := 0; m < mutations; m++ {
			id := ruleIDs[rng.Intn(len(ruleIDs))]
			switch rng.Intn(3) {
			case 0:
				_ = rb.Disable(id, "sim", "soak churn")
			case 1:
				_ = rb.Enable(id, "sim", "soak churn")
			default:
				_ = rb.UpdateConfidence(id, 0.5+float64(rng.Intn(50))/100, "sim")
			}
			record()
			time.Sleep(50 * time.Microsecond)
		}
		wg.Wait()

		// Gather, check exactly-once resolution, verify every served item
		// against the oracle at the shard's actual serving version, and keep
		// the books.
		watchdog, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
		for _, sub := range subs {
			if sub.ticket == nil {
				continue
			}
			res, err := sub.ticket.WaitContext(watchdog)
			if err != nil {
				t.Fatalf("seed %d round %d: ticket unresolved after 30s: %v", seed, round, err)
			}
			sub.cancel()
			select {
			case <-sub.ticket.Done():
			default:
				t.Fatalf("seed %d round %d: Done not closed after Wait", seed, round)
			}
			if again := sub.ticket.Wait(); again != res {
				t.Fatalf("seed %d round %d: second Wait returned a different resolution", seed, round)
			}
			if res.Served+res.Failed != len(sub.items) {
				t.Fatalf("seed %d round %d: served %d + failed %d != %d items",
					seed, round, res.Served, res.Failed, len(sub.items))
			}
			for i, it := range sub.items {
				sd := res.ShardOf[i]
				books[sd].routed++
				if e := res.Errs[i]; e != nil {
					switch {
					case errors.Is(e, ErrQueueFull):
						books[sd].shed++
					case errors.Is(e, ErrShutdown):
						books[sd].rejected++
					case errors.Is(e, ErrDeclined):
						books[sd].declined++
					case errors.Is(e, context.DeadlineExceeded), errors.Is(e, context.Canceled):
						books[sd].expired++
					default:
						t.Fatalf("seed %d round %d: unexpected per-item error %v", seed, round, e)
					}
					continue
				}
				books[sd].served++
				snap := res.Snapshots[i]
				if snap == nil {
					t.Fatalf("seed %d round %d: served item without a snapshot", seed, round)
				}
				want, ok := oracleSnaps[snap.Version()]
				if !ok {
					t.Fatalf("seed %d round %d: shard %d served version %d the rulebase never published",
						seed, round, sd, snap.Version())
				}
				if got, exp := res.Results[i], want.Apply(it).Explain(); got != exp {
					t.Fatalf("seed %d round %d: shard %d verdict diverges from oracle at version %d on %q:\n got: %s\nwant: %s",
						seed, round, sd, snap.Version(), it.Title(), got, exp)
				}
			}
		}
		wcancel()
	}

	srv.Close()

	// Accounting closes per shard, and the harness's books match the
	// serve_shard_* counters exactly — nothing was dropped or double-counted
	// anywhere between the router and the metrics.
	sawTraffic := false
	for i := 0; i < shards; i++ {
		label := fmt.Sprintf("%d", i)
		b := books[i]
		if b.routed != b.served+b.shed+b.expired+b.declined+b.rejected {
			t.Fatalf("seed %d: shard %d accounting leak: routed %d != served %d + shed %d + expired %d + declined %d + rejected %d",
				seed, i, b.routed, b.served, b.shed, b.expired, b.declined, b.rejected)
		}
		if b.routed > 0 {
			sawTraffic = true
		}
		check := func(name string, want int64) {
			if got := reg.Counter(name, "shard", label).Value(); got != want {
				t.Fatalf("seed %d: shard %d %s counter %d != harness books %d", seed, i, name, got, want)
			}
		}
		check(MetricShardRouted, b.routed)
		check(MetricShardServed, b.served)
		check(MetricShardShed, b.shed)
		check(MetricShardExpired, b.expired)
		check(MetricShardDeclined, b.declined)
		check(MetricShardRejected, b.rejected)
	}
	if !sawTraffic {
		t.Fatalf("seed %d: sim routed no traffic — the harness exercises nothing", seed)
	}
	var totalServed int64
	for i := range books {
		totalServed += books[i].served
	}
	if totalServed == 0 {
		t.Fatalf("seed %d: sim served nothing — the harness never exercised the happy path", seed)
	}
	if cacheOn {
		st := srv.CacheStats()
		if st.Misses == 0 {
			t.Fatalf("seed %d: cache-enabled soak never exercised the cache", seed)
		}
		t.Logf("sim seed %d: cache=%+v", seed, st)
	}
	t.Logf("sim seed %d: books=%+v oracle versions=%d faults=%v", seed, books, len(oracleSnaps), inj.Counts())
}
