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
	// MetricShed and MetricDeadlineExpired are the unlabeled request counts
	// the shard ledger replaced (see MetricShardShed, MetricShardExpired).
	//
	// Deprecated: no longer written; ROADMAP item 7 retires them.
	MetricShed            = "serve_shed_total"
	MetricDeadlineExpired = "serve_deadline_expired_total"
	// MetricRetryAttempts / MetricRetrySuccess / MetricRetryGiveUp are a
	// server's retry accounting, labeled by shard: backoff re-submissions
	// after a shed, the sheds that eventually went through, and the ones it
	// gave up on (attempts or budget exhausted, or the caller's context
	// expired).
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

// EngineOptions parameterizes an Engine. Zero values take defaults.
type EngineOptions struct {
	// Obs receives the engine's metrics and the snapshots' executor
	// telemetry (obs.Default when nil).
	Obs *obs.Registry
}

// Engine owns the current Snapshot of one rulebase and keeps it fresh.
//
// Readers call Current (lock-free atomic load; stale by at most the build in
// progress while the rebuild loop runs) or Acquire (state-checked; rebuilds
// synchronously when stale: the rebuild is cached by rulebase state, (load
// epoch, version), so an unchanged rulebase never rebuilds and a rewinding
// load always does). Writers mutate the rulebase normally. While a Start
// hold is live, every committed change wakes the rebuild loop; Acquire and
// the loop share one single-flight build, so each state is built once.
type Engine struct {
	rb  *core.Rulebase
	reg *obs.Registry

	cur     atomic.Pointer[Snapshot]
	buildMu sync.Mutex // single-flight rebuilds

	// rebuildFault is the optional fault-injection hook consulted by every
	// rebuild (see SetRebuildFault); degraded is set while the engine
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

	// The rebuild loop, under holdMu: holds counts live Start holds, closing
	// stop ends the running loop (both nil when none runs), done closes once
	// it has.
	holdMu     sync.Mutex
	holds      int
	stop, done chan struct{}
	unsub      func()
	kick       chan struct{}
}

// RebuildFaultHook is consulted by each snapshot rebuild between its build
// and its publish: a non-zero stall delays the publish (a slow build: changes
// committed meanwhile go to the next one), a non-nil error discards the
// build. faultinject.Injector.RebuildFault matches this signature.
type RebuildFaultHook func() (stall time.Duration, err error)

// NewEngine builds the initial snapshot of rb and returns an engine with no
// holds: Acquire serves state-cached synchronous rebuilds, and no goroutine
// runs until Start takes the first hold.
func NewEngine(rb *core.Rulebase, opts EngineOptions) *Engine {
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	e := &Engine{
		rb:        rb,
		reg:       reg,
		swaps:     reg.Counter(MetricSnapshotSwaps),
		deltas:    reg.Counter(MetricSnapshotBuilds, "kind", "delta"),
		fulls:     reg.Counter(MetricSnapshotBuilds, "kind", "full"),
		buildSec:  reg.Histogram(MetricSnapshotBuild, obs.LatencyBuckets),
		verGauge:  reg.Gauge(MetricSnapshotVersion),
		buildErrs: reg.Counter(MetricBuildErrors),
		degGauge:  reg.Gauge(MetricDegraded),
		kick:      make(chan struct{}, 1),
	}
	reg.Help(MetricSnapshotSwaps, "snapshot publishes (rebuild-and-swap)")
	reg.Help(MetricSnapshotBuild, "seconds each snapshot publish spent building, delta or full")
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
// With no hold it moves only on Acquire. It is never nil and never torn.
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
// rebuild-fault hook may stall the publish or fail it outright; on failure the
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
	snap := e.build()
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

// Start takes a hold on the rebuild loop and returns its idempotent release.
// The first hold subscribes to the rulebase and launches the loop, which
// builds as soon as a change commits; the capacity-1 kick channel coalesces,
// so changes committed during a build cost one more build. Start then
// catches up with Acquire, so a change committed before it is not missed.
// The last release unsubscribes and stops the loop.
func (e *Engine) Start() (release func()) {
	e.holdMu.Lock()
	if e.holds == 0 {
		e.unsub, _ = e.rb.SubscribeChanges(func(core.Change) {
			select {
			case e.kick <- struct{}{}:
			default: // a rebuild is already pending; it will pick this up
			}
		})
		e.stop, e.done = make(chan struct{}), make(chan struct{})
		go e.loop(e.stop, e.done)
	}
	e.holds++
	stop := e.stop
	e.holdMu.Unlock()
	e.Acquire()
	var once sync.Once
	return func() { once.Do(func() { e.release(stop) }) }
}

// release drops the hold taken on the loop run that stop ends, or every hold
// when stop is nil. Once none is left it stops the loop and waits, outside
// holdMu, for it to exit.
func (e *Engine) release(stop chan struct{}) {
	e.holdMu.Lock()
	if stop == nil {
		e.holds = 0
	} else if stop == e.stop {
		e.holds--
	} // else Close already dropped this hold
	done := e.done
	if e.holds > 0 || done == nil {
		e.holdMu.Unlock()
		return
	}
	e.unsub()
	close(e.stop)
	e.stop, e.done, e.unsub = nil, nil, nil
	e.holdMu.Unlock()
	<-done
}

func (e *Engine) loop(stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-e.kick:
			// Changes that commit during the build leave a pending kick, so
			// the loop converges to the latest state.
			e.rebuild()
		}
	}
}

// Close stops the rebuild loop and drops every hold; their releases become
// no-ops. Safe to call more than once or on an engine never started. The
// published snapshot stays valid, Acquire keeps working, and a later Start
// takes a fresh first hold.
func (e *Engine) Close() { e.release(nil) }
