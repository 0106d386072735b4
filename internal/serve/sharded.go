package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// Metric families recorded by the sharded serving tier about whole
// scatter-gather batches; each shard's ledger is its Server's serve_shard_*
// families, in the same registry.
const (
	// MetricScatterBatches counts scatter-gather submissions (their items
	// are the shards' serve_shard_routed_total); MetricScatterPartial counts
	// the batches that resolved with at least one failed item (partial
	// results).
	MetricScatterBatches = "serve_scatter_batches_total"
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

// WithShard returns a context annotated with the shard index. Every shard's
// Server applies it before its handler calls; fault injectors and tests use
// ShardFromContext to target one shard's handlers.
func WithShard(ctx context.Context, shard int) context.Context {
	return context.WithValue(ctx, shardCtxKey{}, shard)
}

// ShardFromContext returns the shard index a handler is running on, or -1
// when the context did not come through a Server.
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
	// RouteKey extracts the routing key (default catalog.Item.RouteKey).
	RouteKey RouteKeyFunc
	// Workers / QueueDepth configure each shard's server (per shard, not
	// totals; defaults follow ServerOptions: 4 workers, depth 64).
	Workers    int
	QueueDepth int
	// Obs is the tier's registry (obs.Default when nil): every shard's
	// serve_shard_* ledger and retry counters, under its shard label, and
	// the serve_scatter_* families. The engine's serve_snapshot_* series and
	// per-rule executor telemetry land in the engine's own registry.
	Obs *obs.Registry
	// Audit, when non-nil, is shared by every shard server (the provenance
	// ring is concurrent-safe), so shed/drain/expired records from all
	// shards land in one tail.
	Audit *obs.AuditLog
	// Retry, when non-nil, is every shard server's ServerOptions.Retry, with
	// a retry budget per shard — one hot shard exhausting its budget does not
	// spend the other shards'. Seeds are decorrelated per shard.
	Retry *RetryOptions
	// Cache sizes the result cache of a caching handler, per shard: adding
	// shards adds cache with the rest of the capacity. The tier itself
	// caches nothing (a handler's result depends on more than the snapshot);
	// chimera.Pipeline.NewShardedServer builds one decision cache of
	// Capacity × Shards entries that every shard reads and fills (it is
	// lock-sharded inside, see DefaultCacheShards).
	Cache CacheConfig
}

// ShardedServer is the scatter-gather serving tier: a consistent-hash router
// over N Servers (the shards) that share one Engine — one published
// snapshot, one rebuild loop — and one registry, and each keep their own
// bounded queue, worker pool, retry budget and ledger. A stalled or overloaded shard sheds only its own
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
	shards []*Server[R]

	closed atomic.Bool

	scatterBatches *obs.Counter
	scatterPartial *obs.Counter
	scatterFanout  *obs.Histogram
}

// NewShardedServer builds the tier over a new engine of rb, registered in
// opts.Obs (see NewShardedServerOn).
func NewShardedServer[R any](rb *core.Rulebase, h Handler[R], opts ShardedOptions) *ShardedServer[R] {
	return NewShardedServerOn(NewEngine(rb, EngineOptions{Obs: opts.Obs}), h, opts)
}

// NewShardedServerOn builds the tier over eng: every shard serves the
// engine's current snapshot (sharding partitions load, not semantics) and
// holds its rebuild loop, so the tier starts on a fresh snapshot. The caller
// owns Shutdown/Close, which release the holds; eng stays its owner's.
func NewShardedServerOn[R any](eng *Engine, h Handler[R], opts ShardedOptions) *ShardedServer[R] {
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
	s := &ShardedServer[R]{
		router:         NewShardRouter(nShards, DefaultRouterReplicas),
		route:          route,
		obs:            reg,
		eng:            eng,
		shards:         make([]*Server[R], nShards),
		scatterBatches: reg.Counter(MetricScatterBatches),
		scatterPartial: reg.Counter(MetricScatterPartial),
		scatterFanout:  reg.Histogram(MetricScatterFanout, scatterFanoutBuckets),
	}
	reg.Help(MetricScatterBatches, "scatter-gather batch submissions")
	reg.Help(MetricScatterPartial, "scatter batches that resolved with at least one failed item")
	reg.Help(MetricScatterFanout, "shards each scatter-gather batch touched")
	for i := range s.shards {
		sopts := ServerOptions{Workers: opts.Workers, QueueDepth: opts.QueueDepth, Obs: reg, Audit: opts.Audit}
		if opts.Retry != nil {
			ropts := *opts.Retry
			// Decorrelate the per-shard jitter streams so shards that shed
			// together do not retry in lockstep.
			ropts.Seed ^= uint64(i+1) * 0x9E3779B97F4A7C15
			sopts.Retry = &ropts
		}
		s.shards[i] = newServer(eng, h, sopts, i)
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedServer[R]) Shards() int { return len(s.shards) }

// Registry returns the tier's registry holding every shard's serve_shard_*
// ledger and the serve_scatter_* families.
func (s *ShardedServer[R]) Registry() *obs.Registry { return s.obs }

// Engine returns the tier's snapshot engine (fault hooks, degraded state).
func (s *ShardedServer[R]) Engine() *Engine { return s.eng }

// Server returns shard i's server (direct per-shard submission, tests). A
// submission to it lands in the same ledger as one through the router.
func (s *ShardedServer[R]) Server(i int) *Server[R] { return s.shards[i] }

// ShardRegistry returns an empty registry that nothing writes: shards keep
// no private registry, their ledger is in Registry() under the shard label.
// It never returns the tier's registry, so a caller that sums it with that
// one counts nothing twice.
//
// Deprecated: read Registry(); ROADMAP item 7 retires this shim.
func (s *ShardedServer[R]) ShardRegistry(int) *obs.Registry { return obs.NewRegistry() }

// ShardFor returns the shard that owns the item's routing key.
func (s *ShardedServer[R]) ShardFor(it *catalog.Item) int {
	return s.router.ShardFor(s.route(it))
}

// Degraded reports whether the tier is serving a stale snapshot after a
// failed rebuild.
func (s *ShardedServer[R]) Degraded() bool { return s.eng.Degraded() }

// ShardStatus is one shard's live state, as reported by ShardStatuses.
// Degraded and SnapshotVersion are the tier's and read the same on every
// shard; the counts are the shard's ledger, in items.
type ShardStatus struct {
	Shard           int    `json:"shard"`
	QueueDepth      int    `json:"queue_depth"`
	QueueCapacity   int    `json:"queue_capacity"`
	Degraded        bool   `json:"degraded"`
	SnapshotVersion uint64 `json:"snapshot_version"`
	Routed          int64  `json:"routed"`
	Served          int64  `json:"served"`
	Shed            int64  `json:"shed"`
	Expired         int64  `json:"expired"`
}

// ShardStatuses reports every shard's live state for the ops health
// provider. It writes nothing: the shards keep their serve_shard_* gauges
// live in the tier's registry. (Snapshot version and degraded are the
// engine's own serve_snapshot_version / serve_degraded gauges.)
func (s *ShardedServer[R]) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(s.shards))
	degraded, version := s.eng.Degraded(), s.eng.Current().Version()
	for i, sh := range s.shards {
		out[i] = ShardStatus{
			Shard:           i,
			QueueDepth:      int(sh.depth.Value()),
			QueueCapacity:   cap(sh.queue),
			Degraded:        degraded,
			SnapshotVersion: version,
			Routed:          sh.routed.Value(),
			Served:          sh.served.Value(),
			Shed:            sh.shed.Value(),
			Expired:         sh.expired.Value(),
		}
	}
	return out
}

// scatterPart is one shard's slice of a scatter batch: the request that
// shard's server resolves, and the items' original positions.
type scatterPart[R any] struct {
	shard int
	idx   []int // original positions of items, in submission order
	req   *request[R]
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
// part is a request its shard's Server resolves exactly once, so the gather
// resolves exactly once too, whether or not anyone waits for it.
type ShardedTicket[R any] struct {
	fin chan struct{}
	res *GatherResult[R]
}

// Done is closed when every part resolved.
func (t *ShardedTicket[R]) Done() <-chan struct{} { return t.fin }

// Wait blocks until every part resolves and returns the merged result. It
// never returns an overall error: per-item failures are in the result
// (GatherResult.Err summarizes them). Safe to call repeatedly.
func (t *ShardedTicket[R]) Wait() *GatherResult[R] {
	<-t.fin
	return t.res
}

// WaitContext is Wait with a deadline on the waiting itself: ctx expiring
// abandons this wait (the parts stay queued and still resolve; call Wait
// again to re-attach), returning ctx.Err().
func (t *ShardedTicket[R]) WaitContext(ctx context.Context) (*GatherResult[R], error) {
	select {
	case <-t.fin:
		return t.res, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// gather merges the resolved parts of an n-item batch back into submission
// order.
func gather[R any](n int, parts []*scatterPart[R]) *GatherResult[R] {
	g := &GatherResult[R]{
		Results:   make([]R, n),
		Errs:      make([]error, n),
		Snapshots: make([]*Snapshot, n),
		ShardOf:   make([]int, n),
	}
	for _, p := range parts {
		for k, pos := range p.idx {
			g.ShardOf[pos] = p.shard
			if p.req.err != nil {
				g.Errs[pos] = p.req.err
				g.Failed++
				continue
			}
			g.Results[pos] = p.req.out[k]
			g.Snapshots[pos] = p.req.snap
			g.Served++
		}
	}
	return g
}

// Submit is SubmitCtx with a background context.
func (s *ShardedServer[R]) Submit(items []*catalog.Item) (*ShardedTicket[R], error) {
	return s.SubmitCtx(context.Background(), items)
}

// SubmitCtx scatter-gathers one batch: items are split by routing key,
// each part is submitted to its owning shard concurrently (retrying a shed
// when ShardedOptions.Retry is set), and the ticket merges the verdicts back
// in input order. Submission never blocks on a full shard queue — that
// shard's items resolve with ErrQueueFull in the gather while other shards
// proceed. An already-expired ctx is scattered like any other: each shard
// server books and audits the expiry, and the gather resolves those items
// with the context error. The only error returned here is ErrShutdown after
// Shutdown began.
func (s *ShardedServer[R]) SubmitCtx(ctx context.Context, items []*catalog.Item) (*ShardedTicket[R], error) {
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
			p = &scatterPart[R]{shard: sd, req: &request[R]{ctx: ctx, done: make(chan struct{})}}
			byShard[sd] = p
			parts = append(parts, p)
		}
		p.idx = append(p.idx, i)
		p.req.items = append(p.req.items, it)
	}
	t := &ShardedTicket[R]{fin: make(chan struct{})}
	s.scatterBatches.Inc()
	s.scatterFanout.Observe(float64(len(parts)))
	// Each shard's server resolves its part; a retry backoff on one shard
	// must not hold up the others' submissions.
	for _, p := range parts {
		go s.shards[p.shard].submit(p.req)
	}
	go func() {
		for _, p := range parts {
			<-p.req.done
		}
		t.res = gather(len(items), parts)
		if t.res.Failed > 0 {
			s.scatterPartial.Inc()
		}
		close(t.fin)
	}()
	return t, nil
}

// Shutdown stops accepting scatter submissions and shuts every shard server
// down concurrently under ctx (each drains or declines per the Server
// contract — every in-flight ticket still resolves) and releases its engine
// hold. It returns a shard's error, if any (ctx expiry during a drain). Safe
// to call more than once.
func (s *ShardedServer[R]) Shutdown(ctx context.Context) error {
	s.closed.Store(true)
	errs := make(chan error, len(s.shards))
	for _, sh := range s.shards {
		go func(sh *Server[R]) { errs <- sh.Shutdown(ctx) }(sh)
	}
	var first error
	for range s.shards {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close is Shutdown without a deadline: every queued request completes.
func (s *ShardedServer[R]) Close() { _ = s.Shutdown(context.Background()) }
