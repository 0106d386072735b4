package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// blockedServer is a 1-worker server whose worker signals each pick-up on
// started and then parks until release() — the harness for deterministic
// overload: saturate() puts one request in flight and fills the queue.
type blockedServer struct {
	srv     *Server[string]
	reg     *obs.Registry
	started chan struct{}
	release func()
}

// budgetOf reads a server's remaining retry budget.
func budgetOf[R any](s *Server[R]) int64 {
	return s.retry.opts.Budget - s.retry.spent.Load()
}

func retryServer(t *testing.T, queueDepth int, retry *RetryOptions) *blockedServer {
	t.Helper()
	eng, reg := testEngine(t)
	rel := make(chan struct{})
	b := &blockedServer{reg: reg, started: make(chan struct{}, 64)}
	b.srv = NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		b.started <- struct{}{}
		<-rel
		return it.ID
	}, ServerOptions{Workers: 1, QueueDepth: queueDepth, Obs: reg, Retry: retry})
	var once sync.Once
	b.release = func() { once.Do(func() { close(rel) }) }
	// Cleanup must release first: Drain waits on the parked worker, and a
	// test that t.Fatal-ed before releasing would otherwise hang forever.
	t.Cleanup(func() { b.release(); b.srv.Drain() })
	return b
}

// saturate submits one in-flight request (waiting for its pick-up) and then
// fills the queue to capacity, so the next Submit must shed.
func (b *blockedServer) saturate(t *testing.T) {
	t.Helper()
	if _, err := b.srv.Submit(oneItem("inflight")); err != nil {
		t.Fatal(err)
	}
	<-b.started
	for i := 0; i < cap(b.srv.queue); i++ {
		if _, err := b.srv.Submit(oneItem(fmt.Sprintf("queued-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// retryCount reads one of shard 0's serve_retry_* counters.
func (b *blockedServer) retryCount(name string) int64 {
	return b.reg.Counter(name, "shard", "0").Value()
}

// TestRetrierSucceedsAfterTransientOverload: a submit shed on a full queue
// must go through on a later backoff attempt once capacity frees up — the
// retry-success metric records it, and the ledger books it served, never
// shed.
func TestRetrierSucceedsAfterTransientOverload(t *testing.T) {
	// Sleep hook: before the 2nd attempt, free the server.
	var b *blockedServer
	attempt := 0
	b = retryServer(t, 1, &RetryOptions{
		MaxAttempts: 5, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			attempt++
			if attempt == 2 {
				b.release()
				// Wait until the queued request is picked up, so a slot is
				// provably free before the next attempt.
				<-b.started
			}
			return nil
		},
	})
	b.saturate(t)
	tk, err := b.srv.Submit(oneItem("retried"))
	if err != nil {
		t.Fatalf("retried submit failed: %v", err)
	}
	if out, _, err := tk.Wait(); err != nil || out[0] != "retried" {
		t.Fatalf("retried ticket: %v, %v", out, err)
	}
	if n := b.retryCount(MetricRetrySuccess); n != 1 {
		t.Fatalf("retry-success counter = %d, want 1", n)
	}
	if n := b.retryCount(MetricRetryAttempts); n < 2 {
		t.Fatalf("retry-attempts counter = %d, want >= 2", n)
	}
	if n := b.reg.Counter(MetricShardShed, "shard", "0").Value(); n != 0 {
		t.Fatalf("shed counter = %d, want 0: a shed a retry recovers is served", n)
	}
}

// TestRetrierGivesUpAfterMaxAttempts: persistent overload ends in
// ErrQueueFull after exactly MaxAttempts re-submissions, tallied as a
// give-up.
func TestRetrierGivesUpAfterMaxAttempts(t *testing.T) {
	slept := 0
	b := retryServer(t, 1, &RetryOptions{
		MaxAttempts: 3, Seed: 2,
		Sleep: func(ctx context.Context, d time.Duration) error { slept++; return nil },
	})
	b.saturate(t)
	_, err := b.srv.Submit(oneItem("doomed"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if slept != 3 {
		t.Fatalf("slept %d times, want 3", slept)
	}
	if n := b.retryCount(MetricRetryGiveUp); n != 1 {
		t.Fatalf("give-up counter = %d, want 1", n)
	}
	if n := b.retryCount(MetricRetryAttempts); n != 3 {
		t.Fatalf("attempts counter = %d, want 3", n)
	}
	if n := b.reg.Counter(MetricShardShed, "shard", "0").Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1: four attempts, one submission", n)
	}
}

// TestRetrierBudget: the lifetime budget is shared across submits; once
// drained, a shed degrades to an immediate ErrRetryBudget (which still
// matches ErrQueueFull for shed handling).
func TestRetrierBudget(t *testing.T) {
	b := retryServer(t, 1, &RetryOptions{
		MaxAttempts: 2, Budget: 3, Seed: 3,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	b.saturate(t)
	// First shed burns 2 budget (both attempts fail), second burns the last.
	if _, err := b.srv.Submit(oneItem("a")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("first: %v", err)
	}
	if _, err := b.srv.Submit(oneItem("b")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second: %v", err)
	}
	if got := budgetOf(b.srv); got != 0 {
		t.Fatalf("budget = %d, want 0", got)
	}
	_, err := b.srv.Submit(oneItem("c"))
	if !errors.Is(err, ErrQueueFull) || err.Error() != ErrRetryBudget.Error() {
		t.Fatalf("post-budget: got %v, want ErrRetryBudget", err)
	}
}

// TestRetrierRespectsContext: an expiring caller context stops the backoff
// loop with ctx.Err(), not ErrQueueFull.
func TestRetrierRespectsContext(t *testing.T) {
	b := retryServer(t, 1, &RetryOptions{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, Seed: 4})
	b.saturate(t)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := b.srv.SubmitCtx(ctx, oneItem("impatient")); err != context.DeadlineExceeded {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestShutdownWakesRetryBackoff: Shutdown must not leave a submitter asleep
// in a retry backoff on a server that can no longer take its request. With
// a one-second backoff ceiling (seed 19 draws 0.9 s first), the submitter
// has to come back with ErrShutdown within 100 ms of Shutdown, booked as
// rejected, and the shard's ledger must close.
func TestShutdownWakesRetryBackoff(t *testing.T) {
	b := retryServer(t, 1, &RetryOptions{MaxAttempts: 50, BaseDelay: time.Second, MaxDelay: time.Second, Seed: 19})
	b.saturate(t)
	type result struct {
		err error
		at  time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, err := b.srv.SubmitCtx(context.Background(), oneItem("backing-off"))
		done <- result{err, time.Now()}
	}()
	time.Sleep(30 * time.Millisecond) // the submitter is shed and asleep in its first backoff
	select {
	case r := <-done:
		t.Fatalf("submitter returned before Shutdown: %v", r.err)
	default:
	}
	shutAt := time.Now()
	shut := make(chan error, 1)
	go func() { shut <- b.srv.Shutdown(context.Background()) }()
	var r result
	select {
	case r = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("submitter still asleep two seconds after Shutdown")
	}
	if !errors.Is(r.err, ErrShutdown) {
		t.Fatalf("SubmitCtx = %v, want ErrShutdown", r.err)
	}
	if d := r.at.Sub(shutAt); d > 100*time.Millisecond {
		t.Fatalf("submitter woke %v after Shutdown, want < 100ms", d)
	}
	b.release()
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	l := readLedger(b.reg, 0)
	if l.rejected != 1 || l.routed != l.served+l.shed+l.expired+l.declined+l.rejected {
		t.Fatalf("ledger does not close with one rejection: %+v", l)
	}
}

// TestRetrierJitterIsCappedAndDeterministic: backoff draws stay within
// [0, min(Base<<attempt, MaxDelay)] and two same-seeded servers draw the
// same sleeps.
func TestRetrierJitterIsCappedAndDeterministic(t *testing.T) {
	mk := func() *retrier {
		b := retryServer(t, 1, &RetryOptions{
			BaseDelay: time.Millisecond, MaxDelay: 8 * time.Millisecond, Seed: 9})
		b.release()
		return b.srv.retry
	}
	a, b := mk(), mk()
	for attempt := 0; attempt < 12; attempt++ {
		da, db := a.jitter(attempt), b.jitter(attempt)
		if da != db {
			t.Fatalf("attempt %d: jitter diverged (%v vs %v)", attempt, da, db)
		}
		ceiling := time.Millisecond << uint(attempt)
		if ceiling > 8*time.Millisecond || ceiling <= 0 {
			ceiling = 8 * time.Millisecond
		}
		if da < 0 || da > ceiling {
			t.Fatalf("attempt %d: jitter %v outside [0, %v]", attempt, da, ceiling)
		}
	}
}

// TestRetrierRefundsBudgetOnCancelledSleep (regression): a budget
// reservation whose backoff sleep is cut short by ctx cancellation funds no
// re-submission and must be refunded — before the fix, impatient callers
// drained the shared breaker without ever retrying, so later callers were
// shed with ErrRetryBudget while the budget's worth of retries had never
// been spent against the queue.
func TestRetrierRefundsBudgetOnCancelledSleep(t *testing.T) {
	b := retryServer(t, 1, &RetryOptions{
		MaxAttempts: 2, Budget: 5, Seed: 11,
		// Every backoff sleep is "interrupted": the reservation never turns
		// into a re-submission.
		Sleep: func(ctx context.Context, d time.Duration) error { return context.Canceled },
	})
	b.saturate(t)
	for i := 0; i < 20; i++ {
		if _, err := b.srv.Submit(oneItem("impatient")); !errors.Is(err, context.Canceled) {
			t.Fatalf("submit %d: got %v, want context.Canceled", i, err)
		}
	}
	if got := budgetOf(b.srv); got != 5 {
		t.Fatalf("cancelled sleeps burned the budget: %d of 5 left, want all 5 refunded", got)
	}
	if got := b.retryCount(MetricRetryAttempts); got != 0 {
		t.Fatalf("%d re-submissions recorded, want 0 — nothing should have charged the budget", got)
	}
}

// TestRetrierSharedBudgetAccounting: the budget is one shared pool — under
// concurrent permanently-shed submits, total recorded re-submission attempts
// equal exactly the configured budget, never attempts × callers.
func TestRetrierSharedBudgetAccounting(t *testing.T) {
	const budget = 7
	b := retryServer(t, 1, &RetryOptions{
		MaxAttempts: 3, Budget: budget, Seed: 13,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	b.saturate(t)
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := b.srv.Submit(oneItem("herd"))
				if !errors.Is(err, ErrQueueFull) {
					t.Errorf("got %v, want an ErrQueueFull-class shed", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := budgetOf(b.srv); got != 0 {
		t.Fatalf("budget = %d after the herd, want 0", got)
	}
	if got := b.retryCount(MetricRetryAttempts); got != budget {
		t.Fatalf("herd spent %d re-submissions, want exactly the shared budget %d", got, budget)
	}
}
