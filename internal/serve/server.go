package serve

import (
	"context"
	"errors"
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

// ServerOptions parameterizes a Server. Zero values take defaults.
type ServerOptions struct {
	// Workers is the worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the number of queued requests; Submit sheds beyond
	// it (default 64).
	QueueDepth int
	// Obs receives the server's metrics (default: the engine's registry).
	Obs *obs.Registry
	// Audit, when non-nil, receives a DecisionRecord for every item the
	// server fails before classification: shed at submit, declined during
	// shutdown drain, or expired in the queue. (Classification-time records
	// are the handler's job — the server never sees its verdicts.) These
	// records are biased, so they bypass sampling.
	Audit *obs.AuditLog
}

// request is one submitted batch and its resolution slot.
type request[R any] struct {
	items []*catalog.Item
	ctx   context.Context // caller's context; checked at worker pick-up
	out   []R
	snap  *Snapshot
	err   error
	done  chan struct{}
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

// Server is the concurrent serving frontend: a bounded queue feeding a fixed
// worker pool, where each request is processed entirely against the snapshot
// current at pick-up time. Backpressure is explicit (ErrQueueFull), caller
// deadlines propagate end-to-end (SubmitCtx / Ticket.WaitContext — a request
// whose context expired while queued resolves with the context error instead
// of burning a worker), shutdown is graceful (queued work completes, or is
// explicitly declined when the drain deadline expires), and queue depth /
// sheds / served / expired counts are recorded in obs.
type Server[R any] struct {
	eng     *Engine
	release func() // the server's hold on the engine's rebuild loop
	h       Handler[R]
	obs     *obs.Registry
	audit   *obs.AuditLog

	mu        sync.RWMutex // guards closed + the queue-close transition
	closed    bool
	queue     chan *request[R]
	abort     chan struct{}
	abortOnce sync.Once
	wg        sync.WaitGroup

	depth    *obs.Gauge
	shed     *obs.Counter
	batches  *obs.Counter
	items    *obs.Counter
	declined *obs.Counter
	expired  *obs.Counter
}

// QueueCapacity returns the configured queue depth limit — the denominator
// for load watermarks over the MetricQueueDepth gauge.
func (s *Server[R]) QueueCapacity() int { return cap(s.queue) }

// Registry returns the registry the server's metrics land in.
func (s *Server[R]) Registry() *obs.Registry { return s.obs }

// NewServer takes a hold on the engine (Engine.Start), so workers read fresh
// snapshots without touching the rulebase lock, and starts the worker pool.
// The caller owns Shutdown/Drain, which release the hold.
func NewServer[R any](eng *Engine, h Handler[R], opts ServerOptions) *Server[R] {
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
	s := &Server[R]{
		eng:      eng,
		h:        h,
		obs:      reg,
		audit:    opts.Audit,
		queue:    make(chan *request[R], queueDepth),
		abort:    make(chan struct{}),
		depth:    reg.Gauge(MetricQueueDepth),
		shed:     reg.Counter(MetricShed),
		batches:  reg.Counter(MetricBatches),
		items:    reg.Counter(MetricItems),
		declined: reg.Counter(MetricDeclined),
		expired:  reg.Counter(MetricDeadlineExpired),
	}
	reg.Help(MetricQueueDepth, "requests queued, not yet picked up by a worker")
	reg.Help(MetricShed, "requests shed at Submit (queue full)")
	reg.Help(MetricDeclined, "items explicitly declined during shutdown drain")
	reg.Help(MetricDeadlineExpired, "requests whose caller deadline expired at submit or while queued")
	s.release = eng.Start()
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues a batch for classification. It never blocks: when the
// queue is at its depth limit the request is shed with ErrQueueFull (the
// caller decides whether to retry, spill, or route to manual); after
// Shutdown it returns ErrShutdown.
func (s *Server[R]) Submit(items []*catalog.Item) (*Ticket[R], error) {
	return s.SubmitCtx(context.Background(), items)
}

// SubmitCtx is Submit with end-to-end deadline propagation: the context is
// checked at submit time (an already-expired context is rejected without
// queueing) and again when a worker picks the request up — a request whose
// deadline expired while it sat in the queue resolves its ticket with the
// context error instead of doing dead work. Cancellation does not recall a
// request that a worker already started.
func (s *Server[R]) SubmitCtx(ctx context.Context, items []*catalog.Item) (*Ticket[R], error) {
	// Every request carries an ID end-to-end: the handler reads it back with
	// obs.RequestID and stamps it on each item's decision record. Assigned
	// before the expiry check so even submit-time rejections are auditable.
	ctx, _ = obs.EnsureRequestID(ctx, "req")
	if err := ctx.Err(); err != nil {
		// Same taxonomy bucket as expiring while queued: the caller's deadline
		// ran out, no snapshot was consulted. Counting it here keeps the
		// shed/expired split honest — an expired submit is not a shed.
		s.expired.Inc()
		s.auditFailure(ctx, items, obs.OutcomeExpired, err.Error())
		return nil, err
	}
	req := &request[R]{items: items, ctx: ctx, done: make(chan struct{})}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrShutdown
	}
	// The gauge is incremented before the send: a worker's Add(-1) is always
	// preceded (happens-after, via the channel) by this Add(1), so the gauge
	// can overshoot transiently on a shed but never go negative.
	s.depth.Add(1)
	select {
	case s.queue <- req:
		return &Ticket[R]{req}, nil
	default:
		s.depth.Add(-1)
		s.shed.Inc()
		s.auditFailure(ctx, items, obs.OutcomeShed, "queue full")
		return nil, ErrQueueFull
	}
}

// auditFailure records one always-captured decision record per item for
// requests the server resolves without classification. SnapshotVersion is 0:
// no snapshot was ever consulted.
func (s *Server[R]) auditFailure(ctx context.Context, items []*catalog.Item, outcome, reason string) {
	if !s.audit.Enabled() {
		return
	}
	id := obs.RequestID(ctx)
	for _, it := range items {
		s.audit.Observe(&obs.DecisionRecord{
			RequestID: id,
			ItemID:    it.ID,
			Path:      obs.PathServe,
			Outcome:   outcome,
			Reason:    reason,
		})
	}
}

func (s *Server[R]) worker() {
	defer s.wg.Done()
	for req := range s.queue {
		s.depth.Add(-1)
		select {
		case <-s.abort:
			// Drain deadline expired: decline explicitly, never drop.
			req.err = ErrDeclined
			s.declined.Add(int64(len(req.items)))
			s.auditFailure(req.ctx, req.items, obs.OutcomeDrain, "shutdown drain deadline expired")
			close(req.done)
			continue
		default:
		}
		// The caller's deadline expired while the request was queued: resolve
		// with the context error rather than serving a result nobody waits for.
		if err := req.ctx.Err(); err != nil {
			req.err = err
			s.expired.Inc()
			s.auditFailure(req.ctx, req.items, obs.OutcomeExpired, err.Error())
			close(req.done)
			continue
		}
		// Snapshot isolation: the whole request runs against the snapshot
		// current at pick-up; a concurrent swap does not affect it.
		snap := s.eng.Current()
		out := make([]R, len(req.items))
		for i, it := range req.items {
			out[i] = s.h(req.ctx, snap, it)
		}
		req.out, req.snap = out, snap
		s.batches.Inc()
		s.items.Add(int64(len(req.items)))
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
	already := s.closed
	s.closed = true
	if !already {
		close(s.queue) // Submit can no longer send: closed is set under mu
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
