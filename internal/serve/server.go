package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"

	"repro/internal/catalog"
	"repro/internal/obs"
)

var (
	// ErrQueueFull is returned by Submit when the request queue is at its
	// depth limit — the explicit shed that keeps latency bounded under
	// overload instead of queueing without bound.
	ErrQueueFull = errors.New("serve: queue full, request shed")
	// ErrShutdown is returned by Submit after Shutdown began.
	ErrShutdown = errors.New("serve: server shut down")
	// ErrDeclined resolves tickets whose request was still queued when the
	// shutdown drain deadline expired: the work was not done, and the caller
	// is told so explicitly — no request is ever silently dropped.
	ErrDeclined = errors.New("serve: declined during shutdown drain")
)

// Handler classifies one item against one immutable snapshot. It is called
// from worker goroutines and must be safe for concurrent use with distinct
// items (snapshots are immutable; per-item state is worker-local). ctx is
// the submitter's context and carries the request ID (obs.RequestID) for
// decision provenance.
type Handler[R any] func(ctx context.Context, snap *Snapshot, it *catalog.Item) R

// Metric families of the serving ledger. Every Server books them under its
// "shard" label (a standalone NewServer is shard "0") where each outcome
// happens, the counts in items, so per shard
//
//	routed = served + shed + expired + declined + rejected
//
// once every submission has resolved: each one is routed once and ends in
// exactly one terminal outcome. A shed that a retry recovers is served; shed
// includes retry-budget exhaustion; expired is a caller deadline that ran
// out at submit, in a retry backoff or queued; declined is a shutdown drain;
// rejected is a submit after shutdown. The queue gauges count requests.
const (
	MetricShardRouted     = "serve_shard_routed_total"
	MetricShardServed     = "serve_shard_served_total"
	MetricShardShed       = "serve_shard_shed_total"
	MetricShardExpired    = "serve_shard_expired_total"
	MetricShardDeclined   = "serve_shard_declined_total"
	MetricShardRejected   = "serve_shard_rejected_total"
	MetricShardQueueDepth = "serve_shard_queue_depth"    // queued, not yet picked up
	MetricShardQueueCap   = "serve_shard_queue_capacity" // set once at construction
)

// ServerOptions parameterizes a Server. Zero values take defaults.
type ServerOptions struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the number of queued requests; Submit sheds beyond
	// it (default 64).
	QueueDepth int
	// Obs receives the server's ledger (default: the engine's registry).
	Obs *obs.Registry
	// Audit, when non-nil, receives a DecisionRecord for every item the
	// server fails before classification: shed at submit, declined during
	// shutdown drain, or expired. (Classification-time records are the
	// handler's job — the server never sees its verdicts.) These records are
	// biased, so they bypass sampling.
	Audit *obs.AuditLog
	// Retry, when non-nil, makes SubmitCtx retry queue-full sheds with
	// capped exponential backoff and full jitter before it gives up.
	Retry *RetryOptions
}

// request is one submitted batch and its resolution slot.
type request[R any] struct {
	items   []*catalog.Item
	ctx     context.Context // caller's context; checked at worker pick-up
	retried bool            // queued by a retry; set before the send
	out     []R
	snap    *Snapshot
	err     error
	done    chan struct{}
}

// Ticket is the caller's handle on a submitted request.
type Ticket[R any] struct{ req *request[R] }

// Done is closed when the request resolved (served, declined, or expired).
func (t *Ticket[R]) Done() <-chan struct{} { return t.req.done }

// Wait blocks until the request resolves. On success it returns the per-item
// results and the snapshot the whole batch was classified under (its Version
// ties every verdict to exactly one rulebase state). On a drain decline it
// returns (nil, nil, ErrDeclined); on a submit-context deadline that expired
// while the request was still queued, (nil, nil, ctx.Err()).
func (t *Ticket[R]) Wait() ([]R, *Snapshot, error) {
	<-t.req.done
	return t.req.out, t.req.snap, t.req.err
}

// WaitContext is Wait with a caller deadline on the waiting itself: it
// returns ctx.Err() if ctx expires before the request resolves. The request
// is NOT cancelled — it stays queued and its ticket still resolves exactly
// once; only this wait is abandoned, and Wait/WaitContext may be called
// again to re-attach.
func (t *Ticket[R]) WaitContext(ctx context.Context) ([]R, *Snapshot, error) {
	select {
	case <-t.req.done:
		return t.req.out, t.req.snap, t.req.err
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// Server is one shard of the serving tier: a bounded queue feeding a fixed
// worker pool, where each request is processed entirely against the snapshot
// current at pick-up time. Backpressure is explicit (ErrQueueFull, after the
// optional retries), caller deadlines propagate end-to-end (SubmitCtx /
// Ticket.WaitContext — a request whose context expired while queued resolves
// with the context error instead of burning a worker), shutdown is graceful
// (queued work completes, or is explicitly declined when the drain deadline
// expires), and every submission is booked in the shard's ledger
// (serve_shard_*) where its outcome happens.
type Server[R any] struct {
	eng     *Engine
	release func() // the server's hold on the engine's rebuild loop
	h       Handler[R]
	shard   int
	audit   *obs.AuditLog
	retry   *retrier // nil without ServerOptions.Retry

	mu        sync.RWMutex // guards closed + the queue-close transition
	closed    bool
	stopped   context.Context // done once Shutdown began: ends retry backoffs
	stop      context.CancelFunc
	queue     chan *request[R]
	abort     chan struct{}
	abortOnce sync.Once
	wg        sync.WaitGroup

	depth    *obs.Gauge
	routed   *obs.Counter
	served   *obs.Counter
	shed     *obs.Counter
	expired  *obs.Counter
	declined *obs.Counter
	rejected *obs.Counter
}

// NewServer builds a standalone server, shard "0" of its own ledger. It
// takes a hold on the engine (Engine.Start), so workers read fresh snapshots
// without touching the rulebase lock, and starts the worker pool. The caller
// owns Shutdown/Drain, which release the hold.
func NewServer[R any](eng *Engine, h Handler[R], opts ServerOptions) *Server[R] {
	return newServer(eng, h, opts, 0)
}

// newServer builds the server of one shard, booking its ledger under the
// shard's label and annotating every handler context with WithShard.
func newServer[R any](eng *Engine, h Handler[R], opts ServerOptions, shard int) *Server[R] {
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	queueDepth := opts.QueueDepth
	if queueDepth <= 0 {
		queueDepth = 64
	}
	reg := opts.Obs
	if reg == nil {
		reg = eng.Registry()
	}
	label := strconv.Itoa(shard)
	s := &Server[R]{
		eng:      eng,
		h:        h,
		shard:    shard,
		audit:    opts.Audit,
		queue:    make(chan *request[R], queueDepth),
		abort:    make(chan struct{}),
		depth:    reg.Gauge(MetricShardQueueDepth, "shard", label),
		routed:   reg.Counter(MetricShardRouted, "shard", label),
		served:   reg.Counter(MetricShardServed, "shard", label),
		shed:     reg.Counter(MetricShardShed, "shard", label),
		expired:  reg.Counter(MetricShardExpired, "shard", label),
		declined: reg.Counter(MetricShardDeclined, "shard", label),
		rejected: reg.Counter(MetricShardRejected, "shard", label),
	}
	reg.Gauge(MetricShardQueueCap, "shard", label).Set(float64(queueDepth))
	reg.Help(MetricShardRouted, "items submitted to each shard")
	reg.Help(MetricShardServed, "items each shard classified successfully")
	reg.Help(MetricShardShed, "items shed by each shard's full queue after its retries")
	reg.Help(MetricShardExpired, "items whose caller deadline expired at submit, in backoff or queued on each shard")
	reg.Help(MetricShardDeclined, "items declined by each shard's shutdown drain")
	reg.Help(MetricShardRejected, "items rejected after shard shutdown")
	reg.Help(MetricShardQueueDepth, "requests queued on each shard, not yet picked up by a worker")
	reg.Help(MetricShardQueueCap, "each shard's queue capacity, in requests")
	s.stopped, s.stop = context.WithCancel(context.Background())
	if opts.Retry != nil {
		s.retry = newRetrier(*opts.Retry, reg, label)
	}
	s.release = eng.Start()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues a batch for classification. Without ServerOptions.Retry
// it never blocks: when the queue is at its depth limit the request is shed
// with ErrQueueFull (the caller decides whether to spill or route to
// manual); after Shutdown it returns ErrShutdown.
func (s *Server[R]) Submit(items []*catalog.Item) (*Ticket[R], error) {
	return s.SubmitCtx(context.Background(), items)
}

// SubmitCtx is Submit with end-to-end deadline propagation: the context is
// checked at submit time (an already-expired context is rejected without
// queueing) and again when a worker picks the request up — a request whose
// deadline expired while it sat in the queue resolves its ticket with the
// context error instead of doing dead work. Cancellation does not recall a
// request that a worker already started. With ServerOptions.Retry a shed is
// retried with backoff inside this call, which then blocks for at most the
// backoff sleeps, which Shutdown cuts short (the submission is then rejected
// with ErrShutdown); the submission still books exactly one terminal outcome.
func (s *Server[R]) SubmitCtx(ctx context.Context, items []*catalog.Item) (*Ticket[R], error) {
	// Every request carries an ID end-to-end: the handler reads it back with
	// obs.RequestID and stamps it on each item's decision record. Assigned
	// before the expiry check so even submit-time rejections are auditable.
	ctx, _ = obs.EnsureRequestID(ctx, "req")
	req := &request[R]{items: items, ctx: ctx, done: make(chan struct{})}
	if err := s.submit(req); err != nil {
		return nil, err
	}
	return &Ticket[R]{req}, nil
}

// submit books req as routed and queues it, retrying a shed when configured.
// A request it cannot queue is resolved here with the returned error.
func (s *Server[R]) submit(req *request[R]) error {
	s.routed.Add(int64(len(req.items)))
	err := s.enqueue(req)
	if s.retry != nil && errors.Is(err, ErrQueueFull) {
		err = s.retry.retry(req.ctx, s.stopped, func() error { req.retried = true; return s.enqueue(req) })
	}
	if err != nil {
		s.fail(req, err)
	}
	return err
}

// enqueue makes one attempt to queue req, booking nothing.
func (s *Server[R]) enqueue(req *request[R]) error {
	// An expired submit is not a shed: no snapshot was consulted and the
	// caller's deadline ran out, the same bucket as expiring while queued.
	if err := req.ctx.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrShutdown
	}
	// The gauge is incremented before the send: a worker's Add(-1) is always
	// preceded (happens-after, via the channel) by this Add(1), so the gauge
	// can overshoot transiently on a shed but never go negative.
	s.depth.Add(1)
	select {
	case s.queue <- req:
		return nil
	default:
		s.depth.Add(-1)
		return ErrQueueFull
	}
}

// fail resolves req with err, its one terminal outcome other than served:
// it books the outcome in the ledger and, for every outcome but a shutdown
// rejection (nothing was accepted), audits one always-captured record per
// item with SnapshotVersion 0 — no snapshot was consulted.
func (s *Server[R]) fail(req *request[R], err error) {
	n := int64(len(req.items))
	outcome, reason := obs.OutcomeExpired, err.Error()
	switch {
	case errors.Is(err, ErrShutdown):
		s.rejected.Add(n)
		outcome = ""
	case errors.Is(err, ErrQueueFull):
		s.shed.Add(n)
		outcome, reason = obs.OutcomeShed, "queue full"
	case errors.Is(err, ErrDeclined):
		s.declined.Add(n)
		outcome, reason = obs.OutcomeDrain, "shutdown drain deadline expired"
	default: // context expiry: at submit, during a retry backoff, or queued
		s.expired.Add(n)
	}
	if outcome != "" && s.audit.Enabled() {
		id := obs.RequestID(req.ctx)
		for _, it := range req.items {
			s.audit.Observe(&obs.DecisionRecord{
				RequestID: id,
				ItemID:    it.ID,
				Path:      obs.PathServe,
				Outcome:   outcome,
				Reason:    reason,
			})
		}
	}
	req.err = err
	close(req.done)
}

func (s *Server[R]) worker() {
	defer s.wg.Done()
	for req := range s.queue {
		s.depth.Add(-1)
		if req.retried { // booked at pick-up: in before the ticket resolves
			s.retry.success.Inc()
		}
		select {
		case <-s.abort:
			// Drain deadline expired: decline explicitly, never drop.
			s.fail(req, ErrDeclined)
			continue
		default:
		}
		// The caller's deadline expired while the request was queued: resolve
		// with the context error rather than serving a result nobody waits for.
		if err := req.ctx.Err(); err != nil {
			s.fail(req, err)
			continue
		}
		// Snapshot isolation: the whole request runs against the snapshot
		// current at pick-up; a concurrent swap does not affect it.
		snap := s.eng.Current()
		ctx := WithShard(req.ctx, s.shard)
		out := make([]R, len(req.items))
		for i, it := range req.items {
			out[i] = s.h(ctx, snap, it)
		}
		req.out, req.snap = out, snap
		s.served.Add(int64(len(req.items)))
		close(req.done)
	}
}

// Shutdown stops accepting new requests and waits for the queue to drain.
// If ctx expires first, the remaining queued requests are explicitly
// declined (their tickets resolve with ErrDeclined) and ctx.Err() is
// returned; requests already being processed always complete. Either way,
// every submitted ticket resolves, and the engine hold is released. Safe to
// call more than once.
func (s *Server[R]) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue) // Submit can no longer send: closed is set under mu
		s.stop()       // a submitter in a retry backoff gives up now
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.release()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.abortOnce.Do(func() { close(s.abort) })
		<-finished
		return ctx.Err()
	}
}

// Drain is Shutdown without a deadline: every queued request completes.
func (s *Server[R]) Drain() { _ = s.Shutdown(context.Background()) }
