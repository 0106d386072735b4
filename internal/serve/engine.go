package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metric families recorded by the serving layer.
const (
	// MetricSnapshotSwaps counts snapshot publishes (initial build included).
	MetricSnapshotSwaps = "serve_snapshot_swaps_total"
	// MetricSnapshotBuild is the rebuild-and-swap latency histogram: the
	// time of each publish's build, delta or full.
	MetricSnapshotBuild = "serve_snapshot_build_seconds"
	// MetricSnapshotBuilds counts snapshot builds by kind: "delta" when the
	// new snapshot shares its predecessor's rule indexes, "full" otherwise
	// (the first build, an added rule, a load, too many dead slots).
	MetricSnapshotBuilds = "serve_snapshot_builds_total"
	// MetricSnapshotVersion is the version of the published snapshot.
	MetricSnapshotVersion = "serve_snapshot_version"
	// MetricQueueDepth is the number of queued (not yet picked up) requests.
	MetricQueueDepth = "serve_queue_depth"
	// MetricShed counts requests declined at Submit because the queue was full.
	MetricShed = "serve_shed_total"
	// MetricBatches / MetricItems count served requests and their items.
	MetricBatches = "serve_batches_total"
	MetricItems   = "serve_items_total"
	// MetricDeclined counts items declined during a shutdown drain.
	MetricDeclined = "serve_declined_total"
	// MetricDeadlineExpired counts requests whose submit-context deadline
	// expired while they were still queued (resolved with the ctx error).
	MetricDeadlineExpired = "serve_deadline_expired_total"
	// MetricRetryAttempts / MetricRetrySuccess / MetricRetryGiveUp are the
	// Retrier's accounting: backoff re-submissions after a shed, the sheds
	// that eventually went through, and the ones the retrier gave up on
	// (attempts or budget exhausted, or the caller's context expired).
	MetricRetryAttempts = "serve_retry_attempts_total"
	MetricRetrySuccess  = "serve_retry_success_total"
	MetricRetryGiveUp   = "serve_retry_giveup_total"
	// MetricBuildErrors counts failed snapshot rebuilds (injected or real);
	// the engine keeps serving the last good snapshot and reports Degraded.
	MetricBuildErrors = "serve_snapshot_build_errors_total"
	// MetricDegraded is 1 while the engine is serving a stale snapshot after
	// a failed rebuild, 0 once a rebuild succeeds again.
	MetricDegraded = "serve_degraded"
)

// DefaultDebounce is the rebuild debounce: after a mutation wakes the async
// loop, the engine waits this long so a burst of maintenance actions (a
// scale-down disabling dozens of rules, a batch of patch rules) costs one
// rebuild, not one per mutation.
const DefaultDebounce = 2 * time.Millisecond

// EngineOptions parameterizes an Engine. Zero values take defaults.
type EngineOptions struct {
	// Debounce is the async rebuild delay after a mutation (DefaultDebounce
	// when 0; negative means rebuild immediately).
	Debounce time.Duration
	// Obs receives the engine's metrics and the snapshots' executor
	// telemetry (obs.Default when nil).
	Obs *obs.Registry
}

// Engine owns the current Snapshot of one rulebase and keeps it fresh.
//
// Readers call Current (lock-free atomic load; may be briefly stale while an
// async rebuild is pending) or Acquire (state-checked; rebuilds
// synchronously when stale — the fallback serving path when the async loop
// is not running: the rebuild is cached by rulebase state, (load epoch,
// version), so an unchanged rulebase never rebuilds and a rewinding load
// always does). Writers mutate the rulebase normally;
// after Start, every mutation wakes the debounced rebuild-and-swap loop.
type Engine struct {
	rb       *core.Rulebase
	reg      *obs.Registry
	debounce time.Duration

	cur     atomic.Pointer[Snapshot]
	buildMu sync.Mutex // single-flight rebuilds

	// rebuildFault is the optional fault-injection hook consulted before
	// every rebuild (see SetRebuildFault); degraded is set while the engine
	// serves a stale snapshot because the last rebuild failed.
	rebuildFault atomic.Pointer[RebuildFaultHook]
	degraded     atomic.Bool

	swaps     *obs.Counter
	deltas    *obs.Counter
	fulls     *obs.Counter
	buildSec  *obs.Histogram
	verGauge  *obs.Gauge
	buildErrs *obs.Counter
	degGauge  *obs.Gauge

	startOnce sync.Once
	closeOnce sync.Once
	kick      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	unsub     func()
}

// RebuildFaultHook is consulted before each snapshot rebuild: a non-zero
// stall delays the build (simulating a slow rulebase read), a non-nil error
// fails it. faultinject.Injector.RebuildFault matches this signature.
type RebuildFaultHook func() (stall time.Duration, err error)

// NewEngine builds the initial snapshot of rb and returns a passive engine:
// Acquire serves state-cached synchronous rebuilds until Start launches
// the async loop. A passive engine holds no goroutines and needs no Close
// (Close is still safe to call).
func NewEngine(rb *core.Rulebase, opts EngineOptions) *Engine {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	debounce := opts.Debounce
	if debounce == 0 {
		debounce = DefaultDebounce
	}
	e := &Engine{
		rb:        rb,
		reg:       reg,
		debounce:  debounce,
		swaps:     reg.Counter(MetricSnapshotSwaps),
		deltas:    reg.Counter(MetricSnapshotBuilds, "kind", "delta"),
		fulls:     reg.Counter(MetricSnapshotBuilds, "kind", "full"),
		buildSec:  reg.Histogram(MetricSnapshotBuild, obs.LatencyBuckets),
		verGauge:  reg.Gauge(MetricSnapshotVersion),
		buildErrs: reg.Counter(MetricBuildErrors),
		degGauge:  reg.Gauge(MetricDegraded),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	reg.Help(MetricSnapshotSwaps, "snapshot publishes (rebuild-and-swap)")
	reg.Help(MetricSnapshotBuilds, "snapshot builds by kind: delta (rule indexes shared with the previous snapshot) or full")
	reg.Help(MetricSnapshotVersion, "rulebase version of the published snapshot")
	reg.Help(MetricBuildErrors, "failed snapshot rebuilds (stale snapshot kept)")
	reg.Help(MetricDegraded, "1 while serving a stale snapshot after a failed rebuild")
	start := time.Now()
	e.publish(e.build(), time.Since(start))
	return e
}

// build constructs a snapshot of the current rulebase: from the published
// snapshot when there is one, so a lifecycle or confidence change costs a
// re-slot, not a re-freeze.
func (e *Engine) build() *Snapshot {
	var snap *Snapshot
	delta := false
	if prev := e.cur.Load(); prev != nil {
		snap, delta = prev.successor(e.rb)
	} else {
		snap = BuildSnapshot(e.rb, e.reg)
	}
	if delta {
		e.deltas.Inc()
	} else {
		e.fulls.Inc()
	}
	return snap
}

// Registry returns the engine's metric registry.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Rulebase returns the rulebase the engine snapshots.
func (e *Engine) Rulebase() *core.Rulebase { return e.rb }

// Current returns the published snapshot without touching the rulebase lock.
// It may lag the rulebase by up to the debounce window (plus rebuild time)
// while the async loop catches up; it is never nil and never torn.
func (e *Engine) Current() *Snapshot { return e.cur.Load() }

// Acquire returns a snapshot that is up to date with the rulebase state at
// the time of the call, rebuilding synchronously when stale. Rebuilds are
// single-flight and cached by state: with an unchanged rulebase this is a
// state compare and an atomic load.
func (e *Engine) Acquire() *Snapshot {
	if s := e.cur.Load(); s.State() == e.rb.State() {
		return s
	}
	return e.rebuild()
}

// rebuild builds and publishes a fresh snapshot unless another goroutine
// already caught the engine up while we waited for the build lock. A
// rebuild-fault hook may stall the build or fail it outright; on failure the
// engine counts the error, flags itself degraded, and keeps serving the last
// good snapshot — callers always get a valid (possibly stale) snapshot, never
// nil and never a torn one.
func (e *Engine) rebuild() *Snapshot {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if s := e.cur.Load(); s.State() == e.rb.State() {
		return s
	}
	start := time.Now()
	if hook := e.rebuildFault.Load(); hook != nil {
		stall, err := (*hook)()
		if stall > 0 {
			time.Sleep(stall)
		}
		if err != nil {
			e.buildErrs.Inc()
			e.setDegraded(true)
			return e.cur.Load() // stale but valid: the resilience contract
		}
	}
	snap := e.build()
	e.publish(snap, time.Since(start))
	e.setDegraded(false)
	return snap
}

func (e *Engine) setDegraded(v bool) {
	if e.degraded.Swap(v) != v {
		g := 0.0
		if v {
			g = 1
		}
		e.degGauge.Set(g)
	}
}

// Degraded reports whether the last rebuild failed and the engine is serving
// a stale snapshot. A degraded engine recovers on the next successful
// rebuild (the async loop keeps retrying on every mutation kick).
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// SetRebuildFault installs (or clears, with nil) the rebuild fault-injection
// hook. Safe to call concurrently with serving; in production it stays nil.
func (e *Engine) SetRebuildFault(hook RebuildFaultHook) {
	if hook == nil {
		e.rebuildFault.Store(nil)
		return
	}
	e.rebuildFault.Store(&hook)
}

func (e *Engine) publish(snap *Snapshot, buildTime time.Duration) {
	e.cur.Store(snap)
	e.swaps.Inc()
	e.buildSec.Observe(buildTime.Seconds())
	e.verGauge.Set(float64(snap.Version()))
}

// Start subscribes to the rulebase and launches the async rebuild loop:
// after a mutation, the loop debounces briefly (collapsing mutation bursts)
// and then rebuilds and swaps the published snapshot. Idempotent. After
// Start, readers on Current never block on maintenance.
func (e *Engine) Start() {
	e.startOnce.Do(func() {
		e.unsub, _ = e.rb.SubscribeChanges(func(core.Change) {
			select {
			case e.kick <- struct{}{}:
			default: // a rebuild is already pending; it will pick this up
			}
		})
		e.wg.Add(1)
		go e.loop()
	})
}

func (e *Engine) loop() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.kick:
			if e.debounce > 0 {
				timer := time.NewTimer(e.debounce)
				select {
				case <-e.done:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			// Mutations that land during the build leave a pending kick, so
			// the loop converges to the latest version.
			e.rebuild()
		}
	}
}

// Close stops the async loop and unsubscribes from the rulebase. Safe to
// call on a never-started engine and safe to call twice. The published
// snapshot stays valid; Acquire keeps working in passive mode.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		if e.unsub != nil {
			e.unsub()
		}
		close(e.done)
		e.wg.Wait()
	})
}
