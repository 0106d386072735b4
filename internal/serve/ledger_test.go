package serve

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// ledgerRulebase is a one-rule rulebase for the ledger tests.
func ledgerRulebase(t *testing.T) *core.Rulebase {
	t.Helper()
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	return rb
}

// hold tags items with a Hold attribute, which the tests' handlers park on.
func hold(items []*catalog.Item, gate string) []*catalog.Item {
	for _, it := range items {
		it.Attrs["Hold"] = gate
	}
	return items
}

// shardLedger is one shard's serve_shard_* counters, read from reg alone.
type shardLedger struct {
	routed, served, shed, expired, declined, rejected int64
}

func readLedger(reg *obs.Registry, shard int) shardLedger {
	l := strconv.Itoa(shard)
	c := func(name string) int64 { return reg.Counter(name, "shard", l).Value() }
	return shardLedger{
		routed:   c(MetricShardRouted),
		served:   c(MetricShardServed),
		shed:     c(MetricShardShed),
		expired:  c(MetricShardExpired),
		declined: c(MetricShardDeclined),
		rejected: c(MetricShardRejected),
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestShardLedgerClosesWithoutWait: every submission is booked where its
// outcome happens, so the tier's ledger closes per shard — routed = served +
// shed + expired + declined + rejected, read from the tier's registry alone —
// without anyone calling Wait, after an abandoned wait, a shed that a retry
// recovers, a shed that exhausts its retries, and a direct Server(i) submit.
func TestShardLedgerClosesWithoutWait(t *testing.T) {
	reg := obs.NewRegistry()
	gates := map[string]chan struct{}{"abandon": make(chan struct{}), "wedge": make(chan struct{})}
	var opened sync.Map
	open := func(gate string) {
		if _, was := opened.LoadOrStore(gate, true); !was {
			close(gates[gate])
		}
	}
	wedged := make(chan struct{}, 2)
	var recovering sync.Once
	freeShard0 := make(chan struct{}) // closed: the next backoff sleep frees shard 0
	var srv *ShardedServer[string]
	srv = NewShardedServer(ledgerRulebase(t), func(_ context.Context, _ *Snapshot, it *catalog.Item) string {
		tag := it.Attrs["Hold"]
		if tag == "wedge" {
			wedged <- struct{}{}
		}
		if g, ok := gates[tag]; ok {
			<-g
		}
		return it.ID
	}, ShardedOptions{
		Shards: 2, RouteKey: routeByID, Workers: 1, QueueDepth: 1, Obs: reg,
		Retry: &RetryOptions{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error {
			select {
			case <-freeShard0:
				// Free shard 0 and wait until its queue slot is empty, so the
				// re-submission that follows this sleep is accepted.
				recovering.Do(func() {
					open("wedge")
					for srv.ShardStatuses()[0].QueueDepth != 0 {
						time.Sleep(100 * time.Microsecond)
					}
				})
			default:
			}
			return nil
		}},
	})
	defer srv.Close()
	defer open("wedge") // on failure, before Close drains the parked workers
	defer open("abandon")
	var done []<-chan struct{}

	// An abandoned wait: both shards park the batch, the caller's wait
	// expires, and nobody calls Wait — the parts still resolve and book.
	abandoned, err := srv.Submit(hold(append(itemsForShard(t, srv, 0, 2), itemsForShard(t, srv, 1, 2)...), "abandon"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	if _, err := abandoned.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext: got %v, want the abandoned wait's deadline", err)
	}
	cancel()
	open("abandon")
	<-abandoned.Done()

	// Wedge shard 0: one request in its worker, one in its queue slot.
	for i := 0; i < 2; i++ {
		tk, err := srv.Submit(hold(itemsForShard(t, srv, 0, 1), "wedge"))
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, tk.Done())
	}
	<-wedged
	waitUntil(t, "shard 0's queue slot taken", func() bool { return srv.ShardStatuses()[0].QueueDepth == 1 })

	// A shed that exhausts its retries: every backoff re-submission sheds.
	exhausted, err := srv.Submit(itemsForShard(t, srv, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-exhausted.Done()

	// A shed that a retry recovers: the first backoff sleep frees shard 0.
	close(freeShard0)
	recovered, err := srv.Submit(itemsForShard(t, srv, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	done = append(done, recovered.Done())

	// A direct submission to one shard's Server.
	direct, err := srv.Server(1).Submit(itemsForShard(t, srv, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	done = append(done, direct.Done())
	for _, d := range done {
		<-d
	}

	want := []shardLedger{
		// 2 abandoned + 2 wedged + 1 exhausted + 1 recovered.
		{routed: 6, served: 5, shed: 1},
		// 2 abandoned + 1 direct.
		{routed: 3, served: 3},
	}
	for i, w := range want {
		got := readLedger(reg, i)
		if got.routed != got.served+got.shed+got.expired+got.declined+got.rejected {
			t.Fatalf("shard %d ledger open: %+v", i, got)
		}
		if got != w {
			t.Fatalf("shard %d ledger %+v, want %+v", i, got, w)
		}
	}
	if n := reg.Counter(MetricRetrySuccess, "shard", "0").Value(); n != 1 {
		t.Fatalf("shard 0 recovered %d sheds on retry, want 1", n)
	}
	if n := reg.Counter(MetricRetryGiveUp, "shard", "0").Value(); n != 1 {
		t.Fatalf("shard 0 gave up on %d sheds, want 1", n)
	}
}

// TestShardQueueDepthIsLive: a scrape between health polls reads each
// shard's current queue depth and capacity from the tier's registry — the
// shard keeps its gauges live, nothing has to call ShardStatuses first.
func TestShardQueueDepthIsLive(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	picked := make(chan struct{}, 1)
	srv := NewShardedServer(ledgerRulebase(t), func(_ context.Context, _ *Snapshot, it *catalog.Item) string {
		if it.Attrs["Hold"] != "" {
			picked <- struct{}{}
			<-gate
		}
		return it.ID
	}, ShardedOptions{Shards: 2, RouteKey: routeByID, Workers: 1, QueueDepth: 3, Obs: reg})
	defer srv.Close()
	defer close(gate)

	for i := 0; i < 2; i++ {
		if _, err := srv.Server(1).Submit(hold(itemsForShard(t, srv, 1, 1), "park")); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-picked
		}
	}
	if got := reg.Gauge(MetricShardQueueDepth, "shard", "1").Value(); got != 1 {
		t.Fatalf("parked shard's queue depth gauge = %v, want 1", got)
	}
	if got := reg.Gauge(MetricShardQueueDepth, "shard", "0").Value(); got != 0 {
		t.Fatalf("idle shard's queue depth gauge = %v, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if got := reg.Gauge(MetricShardQueueCap, "shard", strconv.Itoa(i)).Value(); got != 3 {
			t.Fatalf("shard %d queue capacity gauge = %v, want 3", i, got)
		}
	}
}

// TestTierExpositionHelpsEveryFamily: every family a tier with retries
// emits after serving one batch — its ledger, the scatter families, the
// engine's and the snapshot executors' — carries a # HELP line.
func TestTierExpositionHelpsEveryFamily(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewShardedServer(ledgerRulebase(t), explainHandler, ShardedOptions{
		Shards: 2, Obs: reg, Retry: &RetryOptions{},
	})
	defer srv.Close()
	tk, err := srv.Submit(append(oneItem("a"), oneItem("b")...))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait().Err(); err != nil {
		t.Fatal(err)
	}
	text := reg.PrometheusText()
	typed := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		typed++
		name := strings.Fields(line)[2]
		if !strings.Contains(text, "# HELP "+name+" ") {
			t.Errorf("family %s has no # HELP line", name)
		}
	}
	if typed == 0 {
		t.Fatal("the exposition has no families")
	}
}

// TestServeConstructorsLeakNoGoroutines: every goroutine a serving
// constructor starts — workers, the engine's rebuild loop, scatter parts, a
// submission in retry backoff — is gone once the server is shut down or the
// engine hold released.
func TestServeConstructorsLeakNoGoroutines(t *testing.T) {
	settles := func(t *testing.T, baseline int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after shutdown, %d before:\n%s",
					runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
	mutate := func(t *testing.T, rb *core.Rulebase) {
		t.Helper()
		r, err := core.NewWhitelist("gizmo", "gadget")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rb.Add(r, "test"); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("server-retry-in-backoff", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		reg := obs.NewRegistry()
		eng := NewEngine(ledgerRulebase(t), EngineOptions{Obs: reg})
		defer eng.Close()
		gate := make(chan struct{})
		picked := make(chan struct{}, 1)
		srv := NewServer(eng, func(_ context.Context, _ *Snapshot, it *catalog.Item) string {
			if it.Attrs["Hold"] != "" {
				picked <- struct{}{}
				<-gate
			}
			return it.ID
		}, ServerOptions{Workers: 1, QueueDepth: 1, Obs: reg,
			Retry: &RetryOptions{MaxAttempts: 1 << 20, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}})
		if _, err := srv.Submit(hold(oneItem("busy"), "park")); err != nil {
			t.Fatal(err)
		}
		<-picked
		if _, err := srv.Submit(oneItem("queued")); err != nil {
			t.Fatal(err)
		}
		backoff := make(chan error, 1)
		go func() {
			_, err := srv.Submit(oneItem("in-backoff"))
			backoff <- err
		}()
		waitUntil(t, "a retry attempt", func() bool {
			return reg.Counter(MetricRetryAttempts, "shard", "0").Value() > 0
		})
		shutdown := make(chan error, 1)
		go func() { shutdown <- srv.Shutdown(context.Background()) }()
		if err := <-backoff; !errors.Is(err, ErrShutdown) {
			t.Fatalf("submission in backoff at Shutdown: got %v, want ErrShutdown", err)
		}
		close(gate)
		if err := <-shutdown; err != nil {
			t.Fatal(err)
		}
		eng.Close()
		settles(t, baseline)
		if got := readLedger(reg, 0); got != (shardLedger{routed: 3, served: 2, rejected: 1}) {
			t.Fatalf("ledger %+v, want 3 routed = 2 served + 1 rejected", got)
		}
	})

	for _, retry := range []*RetryOptions{nil, {MaxAttempts: 2}} {
		t.Run("sharded-retry="+strconv.FormatBool(retry != nil), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rb := ledgerRulebase(t)
			srv := NewShardedServer(rb, explainHandler, ShardedOptions{Shards: 3, Obs: obs.NewRegistry(), Retry: retry})
			for i := 0; i < 3; i++ {
				tk, err := srv.Submit(append(oneItem("x"+strconv.Itoa(i)), oneItem("y"+strconv.Itoa(i))...))
				if err != nil {
					t.Fatal(err)
				}
				<-tk.Done()
				mutate(t, rb)
			}
			srv.Close()
			srv.Engine().Close()
			settles(t, baseline)
		})
	}

	t.Run("engine-hold", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		rb := ledgerRulebase(t)
		eng := NewEngine(rb, EngineOptions{Obs: obs.NewRegistry()})
		release := eng.Start()
		mutate(t, rb)
		release()
		settles(t, baseline)
		eng.Close()
	})
}
