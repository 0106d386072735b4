package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// Metric families recorded by the sharded serving tier. The serve_shard_*
// families carry a "shard" label, so one scrape shows every shard side by
// side; the serve_scatter_* families describe whole scatter-gather batches.
const (
	// MetricShardRouted counts items routed to each shard (label shard=N).
	MetricShardRouted = "serve_shard_routed_total"
	// MetricShardServed counts items a shard classified successfully.
	MetricShardServed = "serve_shard_served_total"
	// MetricShardShed counts items shed by a shard's full queue (retry
	// budget exhaustion included — anything errors.Is ErrQueueFull).
	MetricShardShed = "serve_shard_shed_total"
	// MetricShardExpired counts items whose caller deadline expired while
	// their sub-batch was queued on a shard.
	MetricShardExpired = "serve_shard_expired_total"
	// MetricShardDeclined counts items declined by a shard's shutdown drain.
	MetricShardDeclined = "serve_shard_declined_total"
	// MetricShardRejected counts items rejected because the shard (or the
	// whole tier) was already shut down at submit.
	MetricShardRejected = "serve_shard_rejected_total"
	// MetricShardQueueDepth / MetricShardQueueCap mirror each shard's live
	// queue state (refreshed by ShardStatuses — wire it into the health
	// provider so scrapes see fresh gauges). There is no per-shard version or
	// degraded gauge: the tier has one snapshot, reported by the engine's
	// MetricSnapshotVersion / MetricDegraded in the same registry.
	MetricShardQueueDepth = "serve_shard_queue_depth"
	MetricShardQueueCap   = "serve_shard_queue_capacity"
	// MetricScatterBatches / MetricScatterItems count scatter-gather
	// submissions and their items; MetricScatterPartial counts the batches
	// that resolved with at least one failed item (partial results).
	MetricScatterBatches = "serve_scatter_batches_total"
	MetricScatterItems   = "serve_scatter_items_total"
	MetricScatterPartial = "serve_scatter_partial_total"
	// MetricScatterFanout is the per-batch histogram of shards touched.
	MetricScatterFanout = "serve_scatter_fanout"
)

// scatterFanoutBuckets covers realistic shard fan-outs (1..16+).
var scatterFanoutBuckets = []float64{1, 2, 4, 8, 16}

// RouteKeyFunc extracts the shard routing key from an item. The default is
// catalog.Item.RouteKey (the submitting vendor — the paper's tenancy axis),
// so one vendor's pathological batch congests one shard, not the tier.
type RouteKeyFunc func(*catalog.Item) string

// shardCtxKey carries the shard index a handler invocation runs on.
type shardCtxKey struct{}

// WithShard returns a context annotated with the shard index. The sharded
// server applies it before every handler call; fault injectors and tests use
// ShardFromContext to target one shard's handlers.
func WithShard(ctx context.Context, shard int) context.Context {
	return context.WithValue(ctx, shardCtxKey{}, shard)
}

// ShardFromContext returns the shard index a handler is running on, or -1
// when the context did not come through a ShardedServer.
func ShardFromContext(ctx context.Context) int {
	if v, ok := ctx.Value(shardCtxKey{}).(int); ok {
		return v
	}
	return -1
}

// ShardedOptions parameterizes a ShardedServer. Zero values take defaults.
type ShardedOptions struct {
	// Shards is the number of independent queue+worker-pool units (default
	// 4). All of them classify against the tier's one snapshot engine.
	Shards int
	// Replicas is the consistent-hash virtual-node count per shard
	// (DefaultRouterReplicas when 0).
	Replicas int
	// RouteKey extracts the routing key (default catalog.Item.RouteKey).
	RouteKey RouteKeyFunc
	// Workers / QueueDepth configure each shard's server (per shard, not
	// totals; defaults follow ServerOptions: 4 workers, depth 64).
	Workers    int
	QueueDepth int
	// Debounce is the engine's rebuild debounce (DefaultDebounce when 0;
	// negative = immediate).
	Debounce time.Duration
	// Obs is the primary registry (obs.Default when nil): the serve_shard_* /
	// serve_scatter_* families, the one engine's serve_snapshot_* series and
	// per-rule executor telemetry, and the one cache's serve_cache_* series.
	// Each shard's server and retrier write their unlabeled serve_* internals
	// (queue depth, sheds, retries) into a private per-shard registry — see
	// ShardedServer.ShardRegistry — so shards never fight over one gauge.
	Obs *obs.Registry
	// Audit, when non-nil, is shared by every shard server (the provenance
	// ring is concurrent-safe), so shed/drain/expired records from all
	// shards land in one tail.
	Audit *obs.AuditLog
	// Retry, when non-nil, wraps each shard's submissions in a per-shard
	// Retrier: capped backoff with full jitter on that shard's sheds, with a
	// retry budget per shard — one hot shard exhausting its budget does not
	// spend the other shards'. Seeds are decorrelated per shard.
	Retry *RetryOptions
	// Cache sizes the tier's verdict cache. Capacity is stated per shard, so
	// adding shards adds cache with the rest of the capacity; the tier builds
	// one cache of Capacity × Shards entries that every shard reads and
	// fills (it is lock-sharded inside, see CacheConfig.Shards).
	Cache CacheConfig
}

// shard is one independent serving unit: server, optional retrier, a private
// registry for their unlabeled internals, and the labeled per-shard counters
// in the primary registry.
type shard[R any] struct {
	reg  *obs.Registry
	srv  *Server[R]
	retr *Retrier[R]

	routed   *obs.Counter
	served   *obs.Counter
	shed     *obs.Counter
	expired  *obs.Counter
	declined *obs.Counter
	rejected *obs.Counter
}

// ShardedServer is the scatter-gather serving tier: a consistent-hash router
// over N Servers that share one Engine — one published snapshot, one rebuild
// loop, one verdict cache — and each keep their own bounded queue, worker
// pool and retry budget. A stalled or overloaded shard sheds only its own
// key range while the rest of the tier keeps serving; a failed rebuild
// degrades the whole tier, which keeps serving the last good snapshot on
// every shard. Batch submissions are split by routing key, fanned out to the
// owning shards, and merged back preserving input order — per-item errors
// mark exactly the items whose shard failed them.
type ShardedServer[R any] struct {
	router *ShardRouter
	route  RouteKeyFunc
	obs    *obs.Registry
	eng    *Engine
	shards []*shard[R]

	closed atomic.Bool

	scatterBatches *obs.Counter
	scatterItems   *obs.Counter
	scatterPartial *obs.Counter
	scatterFanout  *obs.Histogram
}

// NewShardedServer builds the tier over one rulebase: one engine snapshots
// it and every shard classifies against that engine's current snapshot
// (sharding partitions load, not semantics). The worker pools and the
// engine's async rebuild loop start immediately; the caller owns
// Shutdown/Close.
func NewShardedServer[R any](rb *core.Rulebase, h Handler[R], opts ShardedOptions) *ShardedServer[R] {
	nShards := opts.Shards
	if nShards <= 0 {
		nShards = 4
	}
	route := opts.RouteKey
	if route == nil {
		route = (*catalog.Item).RouteKey
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	cache := opts.Cache
	cache.Capacity *= nShards
	s := &ShardedServer[R]{
		router:         NewShardRouter(nShards, opts.Replicas),
		route:          route,
		obs:            reg,
		eng:            NewEngine(rb, EngineOptions{Obs: reg, Debounce: opts.Debounce, Cache: cache}),
		shards:         make([]*shard[R], nShards),
		scatterBatches: reg.Counter(MetricScatterBatches),
		scatterItems:   reg.Counter(MetricScatterItems),
		scatterPartial: reg.Counter(MetricScatterPartial),
		scatterFanout:  reg.Histogram(MetricScatterFanout, scatterFanoutBuckets),
	}
	reg.Help(MetricShardRouted, "items routed to each shard")
	reg.Help(MetricShardServed, "items each shard classified successfully")
	reg.Help(MetricShardShed, "items shed by each shard's full queue")
	reg.Help(MetricShardExpired, "items whose deadline expired queued on each shard")
	reg.Help(MetricShardDeclined, "items declined by each shard's shutdown drain")
	reg.Help(MetricShardRejected, "items rejected after shard shutdown")
	reg.Help(MetricScatterBatches, "scatter-gather batch submissions")
	reg.Help(MetricScatterPartial, "scatter batches that resolved with at least one failed item")
	for i := 0; i < nShards; i++ {
		label := strconv.Itoa(i)
		sreg := obs.NewRegistry()
		idx := i
		wrapped := func(ctx context.Context, snap *Snapshot, it *catalog.Item) R {
			return h(WithShard(ctx, idx), snap, it)
		}
		srv := NewServer(s.eng, wrapped, ServerOptions{
			Workers:    opts.Workers,
			QueueDepth: opts.QueueDepth,
			Obs:        sreg,
			Audit:      opts.Audit,
		})
		sh := &shard[R]{
			reg:      sreg,
			srv:      srv,
			routed:   reg.Counter(MetricShardRouted, "shard", label),
			served:   reg.Counter(MetricShardServed, "shard", label),
			shed:     reg.Counter(MetricShardShed, "shard", label),
			expired:  reg.Counter(MetricShardExpired, "shard", label),
			declined: reg.Counter(MetricShardDeclined, "shard", label),
			rejected: reg.Counter(MetricShardRejected, "shard", label),
		}
		if opts.Retry != nil {
			ropts := *opts.Retry
			// Decorrelate the per-shard jitter streams so shards that shed
			// together do not retry in lockstep.
			ropts.Seed = ropts.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15)
			sh.retr = NewRetrier(srv, ropts)
		}
		s.shards[i] = sh
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedServer[R]) Shards() int { return len(s.shards) }

// Router returns the consistent-hash router (immutable, safe to share).
func (s *ShardedServer[R]) Router() *ShardRouter { return s.router }

// Registry returns the primary registry holding the labeled serve_shard_*
// and serve_scatter_* families and the engine's and cache's series.
func (s *ShardedServer[R]) Registry() *obs.Registry { return s.obs }

// Engine returns the tier's snapshot engine (fault hooks, degraded state,
// verdict cache).
func (s *ShardedServer[R]) Engine() *Engine { return s.eng }

// Server returns shard i's server (direct per-shard submission, tests).
func (s *ShardedServer[R]) Server(i int) *Server[R] { return s.shards[i].srv }

// ShardRegistry returns shard i's private registry — the unlabeled serve_*
// internals (queue depth, sheds, retry counters) of that shard.
func (s *ShardedServer[R]) ShardRegistry(i int) *obs.Registry { return s.shards[i].reg }

// CacheStats snapshots the tier's verdict-cache counters (all zero when
// caching is disabled).
func (s *ShardedServer[R]) CacheStats() CacheStats { return s.eng.Cache().Stats() }

// ShardFor returns the shard that owns the item's routing key.
func (s *ShardedServer[R]) ShardFor(it *catalog.Item) int {
	return s.router.ShardFor(s.route(it))
}

// Degraded reports whether the tier is serving a stale snapshot after a
// failed rebuild.
func (s *ShardedServer[R]) Degraded() bool { return s.eng.Degraded() }

// ShardStatus is one shard's live state, as reported by ShardStatuses.
// Degraded and SnapshotVersion are the tier's and read the same on every
// shard.
type ShardStatus struct {
	Shard           int    `json:"shard"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	Degraded        bool   `json:"degraded"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Routed          int64  `json:"routed"`
	Served          int64  `json:"served"`
	Shed            int64  `json:"shed"`
}

// ShardStatuses reports every shard's live state and refreshes the labeled
// per-shard queue depth/capacity gauges in the primary registry, so wiring it
// into the ops health provider keeps both /readyz and /metrics fresh from one
// call. (Snapshot version and degraded are the engine's own
// serve_snapshot_version / serve_degraded gauges in the same registry.)
func (s *ShardedServer[R]) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(s.shards))
	degraded, version := s.eng.Degraded(), s.eng.Current().Version()
	for i, sh := range s.shards {
		st := ShardStatus{
			Shard:           i,
			QueueDepth:      int(sh.reg.Gauge(MetricQueueDepth).Value()),
			QueueCapacity:   sh.srv.QueueCapacity(),
			Degraded:        degraded,
			SnapshotVersion: version,
			Routed:          sh.routed.Value(),
			Served:          sh.served.Value(),
			Shed:            sh.shed.Value(),
		}
		label := strconv.Itoa(i)
		s.obs.Gauge(MetricShardQueueDepth, "shard", label).Set(float64(st.QueueDepth))
		s.obs.Gauge(MetricShardQueueCap, "shard", label).Set(float64(st.QueueCapacity))
		out[i] = st
	}
	return out
}

// scatterPart is one shard's slice of a scatter batch and its resolution.
type scatterPart[R any] struct {
	shard int
	idx   []int // original positions of items, in submission order
	items []*catalog.Item
	out   []R
	snap  *Snapshot
	err   error
}

// GatherResult is a merged scatter-gather resolution, positionally aligned
// with the submitted items. Errs[i] is nil exactly when Results[i] is a
// valid classification; a failed shard marks only its own items. Partial
// results are the point of the sharded tier: an overloaded or draining
// shard degrades its key range, never the whole batch.
type GatherResult[R any] struct {
	// Results holds the per-item classifications (zero value where
	// Errs[i] != nil).
	Results []R
	// Errs holds the per-item failure, one of {nil, ErrQueueFull (or a
	// wrapper), ErrShutdown, ErrDeclined, a context error}.
	Errs []error
	// Snapshots names the snapshot each item was classified under (nil for
	// failed items). Items of one shard share one snapshot; parts picked up
	// on either side of a swap may differ by a version.
	Snapshots []*Snapshot
	// ShardOf records the shard each item routed to.
	ShardOf []int
	// Served and Failed count the split.
	Served, Failed int
}

// Err returns nil when every item served, the uniform error when every item
// failed with the same error, and ErrPartial otherwise.
func (g *GatherResult[R]) Err() error {
	if g.Failed == 0 {
		return nil
	}
	var uniform error
	for _, e := range g.Errs {
		if e == nil {
			return ErrPartial
		}
		if uniform == nil {
			uniform = e
		} else if !errors.Is(uniform, e) && !errors.Is(e, uniform) {
			return ErrPartial
		}
	}
	return uniform
}

// ErrPartial marks a scatter batch that resolved with a mix of served and
// failed items (see GatherResult.Errs for the per-item detail).
var ErrPartial = errors.New("serve: scatter batch partially failed")

// ShardedTicket is the caller's handle on a scatter-gather submission. Every
// part resolves exactly once (each rides a shard Server ticket, which has
// that contract), so the gather resolves exactly once too.
type ShardedTicket[R any] struct {
	s     *ShardedServer[R]
	n     int
	parts []*scatterPart[R]
	fin   chan struct{}
	once  sync.Once
	res   *GatherResult[R]
}

// Done is closed when every part resolved.
func (t *ShardedTicket[R]) Done() <-chan struct{} { return t.fin }

// Wait blocks until every part resolves and returns the merged result. It
// never returns an overall error: per-item failures are in the result
// (GatherResult.Err summarizes them). Safe to call repeatedly.
func (t *ShardedTicket[R]) Wait() *GatherResult[R] {
	<-t.fin
	t.once.Do(t.assemble)
	return t.res
}

// WaitContext is Wait with a deadline on the waiting itself: ctx expiring
// abandons this wait (the parts stay queued and still resolve; call Wait
// again to re-attach), returning ctx.Err().
func (t *ShardedTicket[R]) WaitContext(ctx context.Context) (*GatherResult[R], error) {
	select {
	case <-t.fin:
		t.once.Do(t.assemble)
		return t.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// assemble merges the resolved parts back into submission order and records
// the per-shard outcome counters exactly once.
func (t *ShardedTicket[R]) assemble() {
	g := &GatherResult[R]{
		Results:   make([]R, t.n),
		Errs:      make([]error, t.n),
		Snapshots: make([]*Snapshot, t.n),
		ShardOf:   make([]int, t.n),
	}
	for _, p := range t.parts {
		sh := t.s.shards[p.shard]
		n := int64(len(p.items))
		if p.err != nil {
			switch {
			case errors.Is(p.err, ErrQueueFull):
				sh.shed.Add(n)
			case errors.Is(p.err, ErrShutdown):
				sh.rejected.Add(n)
			case errors.Is(p.err, ErrDeclined):
				sh.declined.Add(n)
			default: // context expiry (at submit, queued, or while retrying)
				sh.expired.Add(n)
			}
		} else {
			sh.served.Add(n)
		}
		for k, pos := range p.idx {
			g.ShardOf[pos] = p.shard
			if p.err != nil {
				g.Errs[pos] = p.err
				g.Failed++
				continue
			}
			g.Results[pos] = p.out[k]
			g.Snapshots[pos] = p.snap
			g.Served++
		}
	}
	if g.Failed > 0 {
		t.s.scatterPartial.Inc()
	}
	t.res = g
}

// Submit is SubmitCtx with a background context.
func (s *ShardedServer[R]) Submit(items []*catalog.Item) (*ShardedTicket[R], error) {
	return s.SubmitCtx(context.Background(), items)
}

// SubmitCtx scatter-gathers one batch: items are split by routing key,
// each part is submitted to its owning shard concurrently (through the
// shard's retrier when configured), and the ticket merges the verdicts back
// in input order. Submission never blocks on a full shard queue — that
// shard's items resolve with ErrQueueFull in the gather while other shards
// proceed. Errors returned here are global only: an already-expired ctx, or
// ErrShutdown after Shutdown began.
func (s *ShardedServer[R]) SubmitCtx(ctx context.Context, items []*catalog.Item) (*ShardedTicket[R], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed.Load() {
		return nil, ErrShutdown
	}
	ctx, _ = obs.EnsureRequestID(ctx, "scatter")
	// Partition preserving submission order within each part.
	byShard := make(map[int]*scatterPart[R], len(s.shards))
	var parts []*scatterPart[R]
	for i, it := range items {
		sd := s.router.ShardFor(s.route(it))
		p := byShard[sd]
		if p == nil {
			p = &scatterPart[R]{shard: sd}
			byShard[sd] = p
			parts = append(parts, p)
		}
		p.idx = append(p.idx, i)
		p.items = append(p.items, it)
	}
	t := &ShardedTicket[R]{s: s, n: len(items), parts: parts, fin: make(chan struct{})}
	s.scatterBatches.Inc()
	s.scatterItems.Add(int64(len(items)))
	s.scatterFanout.Observe(float64(len(parts)))
	var wg sync.WaitGroup
	for _, p := range parts {
		s.shards[p.shard].routed.Add(int64(len(p.items)))
		wg.Add(1)
		go s.runPart(ctx, p, &wg)
	}
	go func() {
		wg.Wait()
		close(t.fin)
	}()
	return t, nil
}

// runPart drives one shard's slice of a scatter batch to resolution.
func (s *ShardedServer[R]) runPart(ctx context.Context, p *scatterPart[R], wg *sync.WaitGroup) {
	defer wg.Done()
	sh := s.shards[p.shard]
	var tk *Ticket[R]
	var err error
	if sh.retr != nil {
		tk, err = sh.retr.Submit(ctx, p.items)
	} else {
		tk, err = sh.srv.SubmitCtx(ctx, p.items)
	}
	if err != nil {
		p.err = err
		return
	}
	out, snap, werr := tk.Wait()
	if werr != nil {
		p.err = werr
		return
	}
	p.out, p.snap = out, snap
}

// Shutdown stops accepting scatter submissions, shuts every shard server
// down concurrently under ctx (each drains or declines per the Server
// contract — every in-flight ticket still resolves), then closes the engine.
// It returns the first shard's error, if any (ctx expiry during a drain).
// Safe to call more than once.
func (s *ShardedServer[R]) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard[R]) {
			defer wg.Done()
			errs[i] = sh.srv.Shutdown(ctx)
		}(i, sh)
	}
	wg.Wait()
	s.eng.Close()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close is Shutdown without a deadline: every queued request completes.
func (s *ShardedServer[R]) Close() { _ = s.Shutdown(context.Background()) }
