package serve

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// These tests pin the failure taxonomy of the serving path: every way a
// request can fail must surface a distinct (error, counter, audit outcome)
// triple. A shed is not an expiry, an expiry is not a decline — operators
// alert on these counters separately, so a misclassified error skews the
// taxonomy and hides the real failure mode.

// taxonomyServer builds a server with a sample-every-1 audit log and a
// single worker that blocks on the first item until release is closed —
// the standard way to hold the queue full deterministically.
func taxonomyServer(t *testing.T, queueDepth int, retry *RetryOptions) (*Server[int], *obs.Registry, *obs.AuditLog, chan struct{}) {
	t.Helper()
	eng, reg := testEngine(t)
	audit := obs.NewAuditLog(obs.AuditConfig{Capacity: 64, SampleEvery: 1})
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
	}, ServerOptions{Workers: 1, QueueDepth: queueDepth, Obs: reg, Audit: audit, Retry: retry})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		srv.Drain()
	})
	// Occupy the worker so queued requests stay queued.
	if _, err := srv.Submit(oneItem("blocker")); err != nil {
		t.Fatal(err)
	}
	<-pickedUp
	return srv, reg, audit, release
}

// lastAudit returns the newest decision record, failing if there is none.
func lastAudit(t *testing.T, audit *obs.AuditLog) *obs.DecisionRecord {
	t.Helper()
	recs := audit.Tail(1)
	if len(recs) != 1 {
		t.Fatalf("expected an audit record, got %d", len(recs))
	}
	return recs[0]
}

// TestTaxonomySubmitTimeExpiry: a context that is already dead at SubmitCtx
// is an expiry, not a silent rejection — it must count against
// MetricShardExpired and leave an OutcomeExpired audit record carrying a
// request ID, exactly like a deadline that expires while queued.
func TestTaxonomySubmitTimeExpiry(t *testing.T) {
	srv, reg, audit, _ := taxonomyServer(t, 8, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := srv.SubmitCtx(ctx, oneItem("dead-on-arrival"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx with dead ctx: got %v, want context.Canceled", err)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 1 {
		t.Fatalf("deadline-expired counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricShardShed, "shard", "0").Value(); n != 0 {
		t.Fatalf("shed counter = %d, want 0 (an expired submit is not a shed)", n)
	}
	rec := lastAudit(t, audit)
	if rec.Path != obs.PathServe || rec.Outcome != obs.OutcomeExpired {
		t.Fatalf("audit (path, outcome) = (%q, %q), want (%q, %q)",
			rec.Path, rec.Outcome, obs.PathServe, obs.OutcomeExpired)
	}
	if rec.ItemID != "dead-on-arrival" || rec.RequestID == "" {
		t.Fatalf("audit record item=%q requestID=%q: want the submitted item and a non-empty request ID", rec.ItemID, rec.RequestID)
	}
	if rec.SnapshotVersion != 0 {
		t.Fatalf("audit SnapshotVersion = %d, want 0 (no snapshot consulted)", rec.SnapshotVersion)
	}
}

// TestTaxonomyTierSubmitTimeExpiry: a scatter submitted with an already-dead
// context takes the same taxonomy bucket through the tier — every item
// resolves with the context error, counts once in serve_shard_expired_total,
// and leaves one OutcomeExpired serve record carrying the scatter request ID.
func TestTaxonomyTierSubmitTimeExpiry(t *testing.T) {
	reg := obs.NewRegistry()
	audit := obs.NewAuditLog(obs.AuditConfig{Capacity: 64, SampleEvery: 1})
	srv := NewShardedServer(core.NewRulebase(), explainHandler, ShardedOptions{
		Shards: 3, RouteKey: routeByID, Obs: reg, Audit: audit,
	})
	defer srv.Close()
	var items []*catalog.Item
	for i := 0; i < 12; i++ {
		items = append(items, &catalog.Item{ID: "doa-" + strconv.Itoa(i)})
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tk, err := srv.SubmitCtx(ctx, items)
	if err != nil {
		t.Fatalf("SubmitCtx with dead ctx: %v, want a ticket whose items resolve expired", err)
	}
	res := tk.Wait()
	for i, e := range res.Errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("item %d: err %v, want context.Canceled", i, e)
		}
	}
	var expired int64
	for i := 0; i < srv.Shards(); i++ {
		expired += reg.Counter(MetricShardExpired, "shard", strconv.Itoa(i)).Value()
	}
	if expired != int64(len(items)) {
		t.Fatalf("serve_shard_expired_total over shards = %d, want %d", expired, len(items))
	}
	recs := audit.Tail(audit.Capacity())
	if len(recs) != len(items) {
		t.Fatalf("%d audit records for %d items", len(recs), len(items))
	}
	for _, rec := range recs {
		if rec.Path != obs.PathServe || rec.Outcome != obs.OutcomeExpired || !strings.HasPrefix(rec.RequestID, "scatter-") {
			t.Fatalf("audit record (path, outcome, request) = (%q, %q, %q), want (%q, %q, scatter-…)",
				rec.Path, rec.Outcome, rec.RequestID, obs.PathServe, obs.OutcomeExpired)
		}
	}
}

// TestTaxonomyQueuedExpiry: a deadline that runs out while the request sits
// in the queue resolves the ticket with the context error, counts as
// expired, and audits OutcomeExpired.
func TestTaxonomyQueuedExpiry(t *testing.T) {
	srv, reg, audit, release := taxonomyServer(t, 8, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	tk, err := srv.SubmitCtx(ctx, oneItem("stale"))
	if err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	close(release)
	if _, _, err := tk.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-expiry ticket: got %v, want context.DeadlineExceeded", err)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 1 {
		t.Fatalf("deadline-expired counter = %d, want 1", n)
	}
	rec := lastAudit(t, audit)
	if rec.Outcome != obs.OutcomeExpired {
		t.Fatalf("audit outcome = %q, want %q", rec.Outcome, obs.OutcomeExpired)
	}
}

// TestTaxonomyShed: a queue-full rejection is a shed — ErrQueueFull,
// MetricShardShed, OutcomeShed — and must not bleed into the expired bucket.
func TestTaxonomyShed(t *testing.T) {
	srv, reg, audit, _ := taxonomyServer(t, 1, nil)

	if _, err := srv.Submit(oneItem("queued")); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Submit(oneItem("overflow"))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Submit: got %v, want ErrQueueFull", err)
	}
	if n := reg.Counter(MetricShardShed, "shard", "0").Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 0 {
		t.Fatalf("deadline-expired counter = %d, want 0 (a shed is not an expiry)", n)
	}
	rec := lastAudit(t, audit)
	if rec.Outcome != obs.OutcomeShed || rec.ItemID != "overflow" {
		t.Fatalf("audit (outcome, item) = (%q, %q), want (%q, overflow)", rec.Outcome, rec.ItemID, obs.OutcomeShed)
	}
}

// TestTaxonomyDrainDecline: a request still queued when the shutdown drain
// deadline fires is explicitly declined — ErrDeclined, MetricShardDeclined,
// OutcomeDrain — never dropped and never misfiled as an expiry.
func TestTaxonomyDrainDecline(t *testing.T) {
	srv, reg, audit, release := taxonomyServer(t, 8, nil)

	tk, err := srv.Submit(oneItem("stranded"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	<-ctx.Done()
	<-srv.abort
	close(release)
	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown: got %v, want context.DeadlineExceeded", err)
	}
	if _, _, err := tk.Wait(); !errors.Is(err, ErrDeclined) {
		t.Fatalf("stranded ticket: got %v, want ErrDeclined", err)
	}
	if n := reg.Counter(MetricShardDeclined, "shard", "0").Value(); n != 1 {
		t.Fatalf("declined counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 0 {
		t.Fatalf("deadline-expired counter = %d, want 0 (a drain decline is not an expiry)", n)
	}
	rec := lastAudit(t, audit)
	if rec.Outcome != obs.OutcomeDrain || rec.ItemID != "stranded" {
		t.Fatalf("audit (outcome, item) = (%q, %q), want (%q, stranded)", rec.Outcome, rec.ItemID, obs.OutcomeDrain)
	}
}

// TestTaxonomyShutdownReject: a submit after shutdown is a plain rejection —
// ErrShutdown, booked as rejected and in no failure counter, no audit record
// (nothing was accepted).
func TestTaxonomyShutdownReject(t *testing.T) {
	eng, reg := testEngine(t)
	audit := obs.NewAuditLog(obs.AuditConfig{Capacity: 16, SampleEvery: 1})
	srv := NewServer(eng, func(_ context.Context, _ *Snapshot, _ *catalog.Item) int { return 0 },
		ServerOptions{Workers: 1, Obs: reg, Audit: audit})
	srv.Drain()
	if _, err := srv.Submit(oneItem("too-late")); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-shutdown Submit: got %v, want ErrShutdown", err)
	}
	if n := reg.Counter(MetricShardRejected, "shard", "0").Value(); n != 1 {
		t.Fatalf("rejected counter = %d after shutdown reject, want 1", n)
	}
	for _, m := range []string{MetricShardShed, MetricShardDeclined, MetricShardExpired} {
		if n := reg.Counter(m, "shard", "0").Value(); n != 0 {
			t.Fatalf("%s = %d after shutdown reject, want 0", m, n)
		}
	}
	if recs := audit.Tail(1); len(recs) != 0 {
		t.Fatalf("shutdown reject left %d audit records, want 0", len(recs))
	}
}

// TestTaxonomyRetrierCtxExpiredInBackoff: a caller cancellation during the
// backoff sleep abandons the shed request — ctx error out, give-up counted,
// the reserved budget refunded (the re-submission never happened), and the
// submission booked once, as expired.
func TestTaxonomyRetrierCtxExpiredInBackoff(t *testing.T) {
	srv, reg, _, _ := taxonomyServer(t, 1, &RetryOptions{
		MaxAttempts: 3,
		Budget:      5,
		Sleep:       func(ctx context.Context, _ time.Duration) error { return context.Canceled },
	})
	if _, err := srv.Submit(oneItem("queued")); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Submit(oneItem("impatient"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit: got %v, want context.Canceled", err)
	}
	if n := reg.Counter(MetricRetryGiveUp, "shard", "0").Value(); n != 1 {
		t.Fatalf("give-up counter = %d, want 1", n)
	}
	if b := budgetOf(srv); b != 5 {
		t.Fatalf("budget = %d after cancelled sleep, want 5 (reservation refunded)", b)
	}
	if e, s := reg.Counter(MetricShardExpired, "shard", "0").Value(), reg.Counter(MetricShardShed, "shard", "0").Value(); e != 1 || s != 0 {
		t.Fatalf("expired %d, shed %d: want the abandoned submission booked once, as expired", e, s)
	}
}

// TestTaxonomyRetrierCtxExpiredAtResubmit pins the fixed path: the context
// expires between the backoff sleep and the re-submission, so the re-submit
// is rejected with the context error. That is a give-up — the shed request
// is abandoned — and the submission lands in the expired bucket, once.
func TestTaxonomyRetrierCtxExpiredAtResubmit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	srv, reg, audit, _ := taxonomyServer(t, 1, &RetryOptions{
		MaxAttempts: 3,
		// The sleep itself succeeds, but the caller gives up during it.
		Sleep: func(context.Context, time.Duration) error { cancel(); return nil },
	})
	if _, err := srv.Submit(oneItem("queued")); err != nil {
		t.Fatal(err)
	}
	_, err := srv.SubmitCtx(ctx, oneItem("impatient"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitCtx: got %v, want context.Canceled", err)
	}
	if n := reg.Counter(MetricRetryGiveUp, "shard", "0").Value(); n != 1 {
		t.Fatalf("give-up counter = %d, want 1 (abandoned shed must be counted)", n)
	}
	if n := reg.Counter(MetricRetryAttempts, "shard", "0").Value(); n != 1 {
		t.Fatalf("attempts counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricShardExpired, "shard", "0").Value(); n != 1 {
		t.Fatalf("expired counter = %d, want 1 (the re-submit was rejected as expired)", n)
	}
	if n := reg.Counter(MetricShardShed, "shard", "0").Value(); n != 0 {
		t.Fatalf("shed counter = %d, want 0 (one submission, one terminal outcome)", n)
	}
	rec := lastAudit(t, audit)
	if rec.Outcome != obs.OutcomeExpired {
		t.Fatalf("audit outcome = %q, want %q", rec.Outcome, obs.OutcomeExpired)
	}
}

// TestTaxonomyRetryBudgetExhausted: draining the shared budget degrades a
// shed to ErrRetryBudget (still errors.Is ErrQueueFull), counts one give-up
// and books the submission once, as shed.
func TestTaxonomyRetryBudgetExhausted(t *testing.T) {
	srv, reg, _, _ := taxonomyServer(t, 1, &RetryOptions{
		MaxAttempts: 4,
		Budget:      1,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	})
	if _, err := srv.Submit(oneItem("queued")); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Submit(oneItem("doomed"))
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("Submit: got %v, want ErrRetryBudget", err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("ErrRetryBudget must still match ErrQueueFull for shed handling")
	}
	if n := reg.Counter(MetricRetryGiveUp, "shard", "0").Value(); n != 1 {
		t.Fatalf("give-up counter = %d, want 1", n)
	}
	if n := reg.Counter(MetricShardShed, "shard", "0").Value(); n != 1 {
		t.Fatalf("shed counter = %d, want 1", n)
	}
}
