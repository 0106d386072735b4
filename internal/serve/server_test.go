package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

func testEngine(t testing.TB) (*Engine, *obs.Registry) {
	t.Helper()
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	t.Cleanup(eng.Close)
	return eng, reg
}

func oneItem(id string) []*catalog.Item {
	return []*catalog.Item{{ID: id, Attrs: map[string]string{"Title": "acme widget"}}}
}

// TestServerShedsWhenQueueFull: with a single blocked worker and a depth-2
// queue, the overflow Submit must shed with ErrQueueFull instead of blocking,
// and the shed counter must record it. Released requests all complete.
func TestServerShedsWhenQueueFull(t *testing.T) {
	eng, reg := testEngine(t)
	pickedUp := make(chan struct{})
	release := make(chan struct{})
	first := true
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) int {
		if first {
			first = false
			close(pickedUp)
			<-release
		}
		return len(snap.Apply(it).FinalTypes())
	}, ServerOptions{Workers: 1, QueueDepth: 2, Obs: reg})

	// First request occupies the worker...
	t0, err := srv.Submit(oneItem("blockee"))
	if err != nil {
		t.Fatal(err)
	}
	<-pickedUp
	// ...next two fill the queue...
	t1, err := srv.Submit(oneItem("q1"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := srv.Submit(oneItem("q2"))
	if err != nil {
		t.Fatal(err)
	}
	// ...and the fourth must be shed, not blocked.
	if _, err := srv.Submit(oneItem("overflow")); err != ErrQueueFull {
		t.Fatalf("overflow Submit: got %v, want ErrQueueFull", err)
	}
	if n := reg.Counter(MetricShardShed, "shard", "0").Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}

	close(release)
	srv.Drain()
	for i, tk := range []*Ticket[int]{t0, t1, t2} {
		if _, _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	if n := reg.Counter(MetricShardServed, "shard", "0").Value(); n != 3 {
		t.Fatalf("served %d batches, want 3", n)
	}
}

// TestShutdownDeclinesQueuedRequests is the graceful-drain acceptance test:
// shutting down mid-batch either completes or explicitly declines every
// queued request — nothing is dropped, every ticket resolves. With one worker
// blocked on the first request and nine more queued, an expired drain
// deadline must yield exactly 1 completion and 9 declines.
func TestShutdownDeclinesQueuedRequests(t *testing.T) {
	eng, reg := testEngine(t)
	pickedUp := make(chan struct{})
	release := make(chan struct{})
	first := true
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		if first {
			first = false
			close(pickedUp)
			<-release
		}
		return it.ID
	}, ServerOptions{Workers: 1, QueueDepth: 32, Obs: reg})

	tickets := make([]*Ticket[string], 0, 10)
	for i := 0; i < 10; i++ {
		tk, err := srv.Submit(oneItem(fmt.Sprintf("item-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	<-pickedUp

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// The in-flight request is released only after Shutdown has engaged the
	// abort path (not merely after ctx expired — the worker could otherwise
	// race ahead and drain the queue), so the 9 queued requests must all be
	// declined.
	<-ctx.Done()
	<-srv.abort
	close(release)
	if err := <-shutdownErr; err != context.DeadlineExceeded {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}

	completed, declined := 0, 0
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %d unresolved after Shutdown returned", i)
		}
		out, snap, err := tk.Wait()
		switch err {
		case nil:
			completed++
			if snap == nil || len(out) != 1 {
				t.Fatalf("ticket %d completed without results", i)
			}
		case ErrDeclined:
			declined++
		default:
			t.Fatalf("ticket %d: unexpected error %v", i, err)
		}
	}
	if completed != 1 || declined != 9 {
		t.Fatalf("completed=%d declined=%d, want 1/9", completed, declined)
	}
	if n := reg.Counter(MetricShardDeclined, "shard", "0").Value(); n != 9 {
		t.Fatalf("declined counter = %d, want 9", n)
	}
	if _, err := srv.Submit(oneItem("late")); err != ErrShutdown {
		t.Fatalf("Submit after Shutdown: got %v, want ErrShutdown", err)
	}
}

// TestQueueDepthGaugeNeverNegative is the regression test for the Submit
// gauge-ordering bug: the gauge used to be incremented after the channel
// send, so a fast worker's Add(-1) could land first and the gauge dipped
// below zero. With the increment moved before the send, a sampler hammering
// the gauge during a concurrent submit/drain storm must never observe a
// negative value, and the gauge must settle at exactly zero after Drain.
func TestQueueDepthGaugeNeverNegative(t *testing.T) {
	eng, reg := testEngine(t)
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		return it.ID
	}, ServerOptions{Workers: 4, QueueDepth: 8, Obs: reg})

	gauge := reg.Gauge(MetricShardQueueDepth, "shard", "0")
	stop := make(chan struct{})
	negative := make(chan float64, 1)
	var samplers sync.WaitGroup
	for g := 0; g < 2; g++ {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if v := gauge.Value(); v < 0 {
						select {
						case negative <- v:
						default:
						}
						return
					}
				}
			}
		}()
	}

	var subs sync.WaitGroup
	for c := 0; c < 8; c++ {
		subs.Add(1)
		go func(c int) {
			defer subs.Done()
			for i := 0; i < 300; i++ {
				tk, err := srv.Submit(oneItem(fmt.Sprintf("c%d-%d", c, i)))
				if err != nil {
					continue // shed under load: fine, the gauge is the test
				}
				if c%2 == 0 {
					tk.Wait()
				}
			}
		}(c)
	}
	subs.Wait()
	srv.Drain()
	close(stop)
	samplers.Wait()
	select {
	case v := <-negative:
		t.Fatalf("queue depth gauge went negative: %v", v)
	default:
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("queue depth gauge = %v after Drain, want 0", v)
	}
}

// TestSubmitCtxDeadlineWhileQueued: a request whose caller deadline expires
// while it sits behind a blocked worker resolves with the context error (and
// is counted in serve_deadline_expired_total) instead of being served to a
// caller that already left.
func TestSubmitCtxDeadlineWhileQueued(t *testing.T) {
	eng, reg := testEngine(t)
	pickedUp := make(chan struct{})
	release := make(chan struct{})
	first := true
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		if first {
			first = false
			close(pickedUp)
			<-release
		}
		return it.ID
	}, ServerOptions{Workers: 1, QueueDepth: 8, Obs: reg})
	defer srv.Drain()

	blocker, err := srv.Submit(oneItem("blocker"))
	if err != nil {
		t.Fatal(err)
	}
	<-pickedUp

	ctx, cancel := context.WithCancel(context.Background())
	queued, err := srv.SubmitCtx(ctx, oneItem("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	live, err := srv.SubmitCtx(context.Background(), oneItem("survivor"))
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the doomed request's caller gives up while it is queued
	close(release)

	if _, _, err := queued.Wait(); err != context.Canceled {
		t.Fatalf("expired-while-queued ticket: got %v, want context.Canceled", err)
	}
	if out, _, err := live.Wait(); err != nil || out[0] != "survivor" {
		t.Fatalf("unexpired ticket: got %v, %v", out, err)
	}
	if _, _, err := blocker.Wait(); err != nil {
		t.Fatalf("in-flight ticket: %v", err)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 1 {
		t.Fatalf("deadline-expired counter = %d, want 1", n)
	}
}

// TestSubmitCtxRejectsExpiredContext: an already-dead context never queues.
func TestSubmitCtxRejectsExpiredContext(t *testing.T) {
	eng, reg := testEngine(t)
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		return it.ID
	}, ServerOptions{Workers: 1, QueueDepth: 2, Obs: reg})
	defer srv.Drain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.SubmitCtx(ctx, oneItem("late")); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if v := reg.Gauge(MetricShardQueueDepth, "shard", "0").Value(); v != 0 {
		t.Fatalf("rejected submit leaked queue depth: %v", v)
	}
}

// TestWaitContextAbandonsWaitNotRequest: WaitContext returns the caller's
// ctx error when waiting times out, but the ticket itself still resolves and
// can be re-waited — the request is never cancelled mid-flight.
func TestWaitContextAbandonsWaitNotRequest(t *testing.T) {
	eng, reg := testEngine(t)
	release := make(chan struct{})
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		<-release
		return it.ID
	}, ServerOptions{Workers: 1, QueueDepth: 2, Obs: reg})
	defer srv.Drain()

	tk, err := srv.Submit(oneItem("slow"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, err := tk.WaitContext(ctx); err != context.DeadlineExceeded {
		t.Fatalf("WaitContext: got %v, want context.DeadlineExceeded", err)
	}
	close(release)
	if out, _, err := tk.WaitContext(context.Background()); err != nil || out[0] != "slow" {
		t.Fatalf("re-attached wait: got %v, %v", out, err)
	}
}

// TestDrainCompletesEverything: Drain (no deadline) lets every queued request
// finish; nothing is declined and a second Shutdown is a no-op.
func TestDrainCompletesEverything(t *testing.T) {
	eng, reg := testEngine(t)
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		return it.ID
	}, ServerOptions{Workers: 2, QueueDepth: 32, Obs: reg})

	tickets := make([]*Ticket[string], 0, 12)
	for i := 0; i < 12; i++ {
		tk, err := srv.Submit(oneItem(fmt.Sprintf("item-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	srv.Drain()
	srv.Drain() // idempotent
	for i, tk := range tickets {
		out, _, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if out[0] != fmt.Sprintf("item-%d", i) {
			t.Fatalf("ticket %d: got %q", i, out[0])
		}
	}
	if n := reg.Counter(MetricShardDeclined, "shard", "0").Value(); n != 0 {
		t.Fatalf("declined counter = %d, want 0", n)
	}
	if n := reg.Counter(MetricShardServed, "shard", "0").Value(); n != 12 {
		t.Fatalf("batches counter = %d, want 12", n)
	}
}

// TestSubmitAuditSymmetry pins the audit contract shared by the two entry
// points: Submit and SubmitCtx must produce identical serving-failure
// decision records — same Path / Outcome / Reason, a non-empty RequestID,
// SnapshotVersion 0 — for both sheds at submit and declines during the
// shutdown drain. Submit is a thin delegate of SubmitCtx (the request-ID
// stamp lives in SubmitCtx, after the delegation point), and this regression
// test keeps it that way: an operator grepping the decision log for shed or
// drain records must never be able to tell which entry point the caller used.
func TestSubmitAuditSymmetry(t *testing.T) {
	eng, reg := testEngine(t)
	audit := obs.NewAuditLog(obs.AuditConfig{Capacity: 64, SampleEvery: 1})
	pickedUp := make(chan struct{})
	release := make(chan struct{})
	first := true
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) string {
		if first {
			first = false
			close(pickedUp)
			<-release
		}
		return snap.Apply(it).Explain()
	}, ServerOptions{Workers: 1, QueueDepth: 2, Obs: reg, Audit: audit})

	// Occupy the single worker, then park one queued request from each entry
	// point (these become the drain declines below).
	if _, err := srv.Submit(oneItem("blocker")); err != nil {
		t.Fatal(err)
	}
	<-pickedUp
	if _, err := srv.Submit(oneItem("drain-plain")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitCtx(context.Background(), oneItem("drain-ctx")); err != nil {
		t.Fatal(err)
	}

	// The queue is now full: shed one request from each entry point.
	if _, err := srv.Submit(oneItem("shed-plain")); err != ErrQueueFull {
		t.Fatalf("Submit overflow: got %v, want ErrQueueFull", err)
	}
	if _, err := srv.SubmitCtx(context.Background(), oneItem("shed-ctx")); err != ErrQueueFull {
		t.Fatalf("SubmitCtx overflow: got %v, want ErrQueueFull", err)
	}

	// Expire the drain immediately so both queued requests are declined; the
	// blocker is released only after the abort path is engaged (same dance as
	// TestShutdownDeclinesQueuedRequests).
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	<-ctx.Done()
	<-srv.abort
	close(release)
	if err := <-shutdownErr; err != context.DeadlineExceeded {
		t.Fatalf("Shutdown returned %v, want context.DeadlineExceeded", err)
	}

	// One record per item per failure, from either entry point, and the
	// records differ only in identity (RequestID / ItemID / Seq / Time).
	checkPair := func(outcome, reason, plainItem, ctxItem string) {
		t.Helper()
		recs := audit.TailFiltered(64, "", obs.PathServe, outcome)
		byItem := map[string]*obs.DecisionRecord{}
		for _, r := range recs {
			byItem[r.ItemID] = r
		}
		if len(recs) != 2 || byItem[plainItem] == nil || byItem[ctxItem] == nil {
			t.Fatalf("%s records: got %d %v, want exactly {%s, %s}",
				outcome, len(recs), byItem, plainItem, ctxItem)
		}
		for _, r := range []*obs.DecisionRecord{byItem[plainItem], byItem[ctxItem]} {
			if r.RequestID == "" {
				t.Fatalf("%s record for %s has no request ID", outcome, r.ItemID)
			}
			if r.Path != obs.PathServe || r.Outcome != outcome || r.Reason != reason {
				t.Fatalf("%s record for %s: path=%q outcome=%q reason=%q, want %q/%q/%q",
					outcome, r.ItemID, r.Path, r.Outcome, r.Reason, obs.PathServe, outcome, reason)
			}
			if r.SnapshotVersion != 0 {
				t.Fatalf("%s record for %s: snapshot version %d, want 0 (no snapshot consulted)",
					outcome, r.ItemID, r.SnapshotVersion)
			}
		}
		if byItem[plainItem].RequestID == byItem[ctxItem].RequestID {
			t.Fatalf("%s records share request ID %q across distinct submissions",
				outcome, byItem[plainItem].RequestID)
		}
	}
	checkPair(obs.OutcomeShed, "queue full", "shed-plain", "shed-ctx")
	checkPair(obs.OutcomeDrain, "shutdown drain deadline expired", "drain-plain", "drain-ctx")
}
