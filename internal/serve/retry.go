package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/randx"
)

// ErrRetryBudget is returned by SubmitCtx when the server's retry budget is
// exhausted: the submit was shed and no backoff attempts remain. It wraps
// ErrQueueFull so existing shed handling still matches.
var ErrRetryBudget = fmt.Errorf("serve: retry budget exhausted (%w)", ErrQueueFull)

// RetryOptions parameterizes a server's retry of queue-full sheds
// (ServerOptions.Retry, ShardedOptions.Retry). Zero values take defaults.
type RetryOptions struct {
	// MaxAttempts bounds the re-submissions after the initial shed
	// (default 4; the initial Submit is not counted).
	MaxAttempts int
	// BaseDelay is the first backoff ceiling; each attempt doubles it up to
	// MaxDelay (defaults 1ms / 50ms). The actual sleep is drawn uniformly
	// from [0, ceiling] — "full jitter", which decorrelates retry storms: a
	// thundering herd that was shed together does not retry together.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Budget caps the total re-submissions across the server's lifetime
	// (0 = unlimited). Overload that persists long enough to drain the
	// budget degrades every later shed to an immediate ErrRetryBudget —
	// retries are for transient overload, not a substitute for capacity.
	//
	// The budget is shared by every caller of the server: it is a lifetime
	// circuit breaker, not a per-call allowance, so a thundering herd drains
	// it once instead of each caller retrying MaxAttempts times against a
	// saturated queue. Per-call isolation is what MaxAttempts provides, and a
	// reservation whose backoff sleep is cancelled by ctx is refunded, never
	// burned.
	Budget int64
	// Seed makes the jitter deterministic for tests and chaos runs.
	Seed uint64
	// Sleep replaces the inter-attempt sleep (tests; default respects ctx
	// cancellation while sleeping).
	Sleep func(ctx context.Context, d time.Duration) error
}

// retrier is a server's backoff state: capped exponential backoff with full
// jitter on ErrQueueFull sheds, a shared budget, and the serve_retry_*
// counters under the server's shard label, so a drill can show shed
// requests succeeding on retry rather than asserting it.
type retrier struct {
	opts  RetryOptions
	spent atomic.Int64 // budget reservations held; read only when opts.Budget > 0

	mu  sync.Mutex // guards rng
	rng *randx.Rand

	attempts *obs.Counter
	success  *obs.Counter
	giveUp   *obs.Counter
}

func newRetrier(opts RetryOptions, reg *obs.Registry, label string) *retrier {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BaseDelay <= 0 {
		opts.BaseDelay = time.Millisecond
	}
	if opts.MaxDelay <= 0 {
		opts.MaxDelay = 50 * time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = ctxSleep
	}
	reg.Help(MetricRetryAttempts, "backoff re-submissions after a queue-full shed, per shard")
	reg.Help(MetricRetrySuccess, "shed requests that succeeded on a retry, per shard")
	reg.Help(MetricRetryGiveUp, "shed requests abandoned (attempts/budget exhausted or ctx expired), per shard")
	return &retrier{
		opts:     opts,
		rng:      randx.New(opts.Seed).Split("retry"),
		attempts: reg.Counter(MetricRetryAttempts, "shard", label),
		success:  reg.Counter(MetricRetrySuccess, "shard", label),
		giveUp:   reg.Counter(MetricRetryGiveUp, "shard", label),
	}
}

// jitter draws the full-jitter sleep for the given attempt (0-based).
func (r *retrier) jitter(attempt int) time.Duration {
	ceiling := r.opts.BaseDelay << uint(attempt)
	if ceiling <= 0 || ceiling > r.opts.MaxDelay {
		ceiling = r.opts.MaxDelay
	}
	r.mu.Lock()
	f := r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(f * float64(ceiling))
}

// retry re-runs enqueue after a shed, with capped exponential backoff and
// full jitter, until it is accepted (nil), attempts or budget run out
// (ErrRetryBudget / ErrQueueFull — both match errors.Is(err, ErrQueueFull)),
// or it fails for a reason backing off cannot fix (ctx expiry, shutdown). A
// backoff sleep ends early when ctx is done (its error is returned) or when
// stopped is (the server shut down: ErrShutdown is returned).
func (r *retrier) retry(ctx, stopped context.Context, enqueue func() error) error {
	sleepCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	defer context.AfterFunc(stopped, func() { cancel(ErrShutdown) })()
	budgeted := r.opts.Budget > 0
	err := ErrQueueFull
	for attempt := 0; attempt < r.opts.MaxAttempts; attempt++ {
		if budgeted && r.spent.Add(1) > r.opts.Budget {
			r.spent.Add(-1)
			r.giveUp.Inc()
			return ErrRetryBudget
		}
		if serr := r.opts.Sleep(sleepCtx, r.jitter(attempt)); serr != nil {
			if errors.Is(context.Cause(sleepCtx), ErrShutdown) {
				serr = ErrShutdown
			}
			// The reserved re-submission never happened: refund it so a
			// caller-side cancellation does not charge the shared breaker.
			if budgeted {
				r.spent.Add(-1)
			}
			r.giveUp.Inc()
			return serr
		}
		r.attempts.Inc()
		if err = enqueue(); err == nil {
			return nil // success is booked by the worker that takes it
		}
		if !errors.Is(err, ErrQueueFull) {
			// The shed request is being abandoned for a different terminal
			// reason (ctx expired between backoff and re-submit, or shutdown):
			// still a give-up, or the counter undercounts abandoned sheds.
			r.giveUp.Inc()
			return err
		}
	}
	r.giveUp.Inc()
	return err
}

// ctxSleep sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case.
func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
