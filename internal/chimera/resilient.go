package chimera

import (
	"context"
	"errors"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Metric families recorded by the resilience layer.
const (
	// MetricDegradedItems counts items decided on the gate-only degraded
	// path; MetricDegradedBatches counts the batches that took it.
	MetricDegradedItems   = "chimera_degraded_items_total"
	MetricDegradedBatches = "chimera_degraded_batches_total"
)

// ResilientClient is the failure-aware frontend over the pipeline's sharded
// serving tier: it scatters batches with caller-deadline propagation (and
// per-shard retry-with-backoff when ShardedOptions.Retry is set), and when
// the tier cannot take the work — a shard queue stays full past its retries,
// or the tier's snapshot engine is degraded after a failed rebuild — it falls
// back to the gate-only degraded decision path instead of shedding. Degraded
// items are routed to the manual queue with reason "degraded": recall is
// sacrificed, item accounting never is.
type ResilientClient struct {
	p    *Pipeline
	tier *serve.ShardedServer[Decision]

	degItems   *obs.Counter
	degBatches *obs.Counter
}

// NewResilientClient builds the pipeline's sharded tier (see
// NewShardedServer; faults may be nil) and wraps it in the degraded-mode
// fallback. The caller owns Shutdown/Close on Tier().
func (p *Pipeline) NewResilientClient(opts serve.ShardedOptions, faults *faultinject.Injector) *ResilientClient {
	p.Obs.Help(MetricDegradedItems, "items decided on the gate-only degraded path")
	p.Obs.Help(MetricDegradedBatches, "batches that fell back to degraded mode")
	return &ResilientClient{
		p:          p,
		tier:       p.NewShardedServer(opts, faults),
		degItems:   p.Obs.Counter(MetricDegradedItems),
		degBatches: p.Obs.Counter(MetricDegradedBatches),
	}
}

// Tier exposes the serving tier (Shutdown, shard statuses, engine fault
// hooks, the shards' ledger in its registry).
func (rc *ResilientClient) Tier() *serve.ShardedServer[Decision] { return rc.tier }

// Process classifies one batch end to end under the resilience policy:
//
//  1. tier degraded → every item takes the gate-only path (no queueing);
//  2. otherwise the batch is scattered and gathered under the caller's ctx;
//  3. items a full shard queue shed (after that shard's retries) get
//     gate-only decisions — the overloaded tier answers every item, it just
//     answers conservatively;
//  4. shutdown or an expired caller ctx → the error, unmasked.
//
// Every submitted item therefore resolves exactly once: with a full
// decision, a gate-only decision, or an explicit per-item error (a shard's
// shutdown drain) — never silence, and never ErrQueueFull.
func (rc *ResilientClient) Process(ctx context.Context, items []*catalog.Item) (*serve.GatherResult[Decision], error) {
	// One request ID for the whole batch, shared by its degraded items.
	ctx, _ = obs.EnsureRequestID(ctx, "scatter")
	var g *serve.GatherResult[Decision]
	var shed []int
	if rc.tier.Degraded() {
		n := len(items)
		g = &serve.GatherResult[Decision]{Results: make([]Decision, n), Errs: make([]error, n),
			Snapshots: make([]*serve.Snapshot, n), ShardOf: make([]int, n), Failed: n}
		for i, it := range items {
			g.ShardOf[i] = rc.tier.ShardFor(it)
			shed = append(shed, i)
		}
	} else {
		tk, err := rc.tier.SubmitCtx(ctx, items)
		if err != nil {
			return nil, err
		}
		if g, err = tk.WaitContext(ctx); err != nil {
			return nil, err
		}
		// A gather can resolve as ctx expires (a dead ctx resolves every
		// item with ctx.Err()); the expiry is the answer either way.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i, e := range g.Errs {
			if errors.Is(e, serve.ErrQueueFull) {
				shed = append(shed, i)
			}
		}
	}
	if len(shed) > 0 {
		rc.degrade(ctx, items, shed, g)
	}
	return g, nil
}

// degrade answers items[idx] gate-only under the tier's current snapshot and
// marks them served in g.
func (rc *ResilientClient) degrade(ctx context.Context, items []*catalog.Item, idx []int, g *serve.GatherResult[Decision]) {
	sub := make([]*catalog.Item, len(idx))
	for k, i := range idx {
		sub[k] = items[i]
	}
	snap := rc.tier.Engine().Current()
	out := rc.p.classifyDegraded(ctx, snap, sub)
	for k, i := range idx {
		g.Results[i], g.Errs[i], g.Snapshots[i] = out[k], nil, snap
	}
	g.Served += len(idx)
	g.Failed -= len(idx)
	rc.degBatches.Inc()
	rc.degItems.Add(int64(len(idx)))
}

// classifyDegraded is the pipeline's gate-only decision path, used under
// overload and rebuild failure: only stage 1 (Gate Keeper + Filter) runs on
// snap; undecided items are declined with reason "degraded" and routed to
// the manual queue. Manual-queue and per-stage accounting run exactly as on
// the full path, so served + declined totals still add up across modes.
// Every item yields an always-captured audit record on the degraded path —
// the records an operator tails first during an incident.
func (p *Pipeline) classifyDegraded(ctx context.Context, snap *serve.Snapshot, items []*catalog.Item) []Decision {
	ctx, _ = obs.EnsureRequestID(ctx, "degraded")
	out := make([]Decision, len(items))
	declined := 0
	for i, it := range items {
		start := time.Now()
		gv := snap.Gate().Apply(it)
		if d, ok := p.gateDecision(it, snap, gv); ok {
			out[i] = d
		} else {
			out[i] = Decision{Item: it, Declined: true, Reason: "degraded"}
		}
		p.auditDecision(ctx, snap, out[i], obs.PathDegraded, gv, nil, "gate", time.Since(start), "", 0)
		if out[i].Declined {
			declined++
		}
	}
	p.mu.Lock()
	p.manualQ += declined
	qdepth := p.manualQ
	p.mu.Unlock()
	for _, d := range out {
		p.Obs.Counter(MetricDecisions, "stage", stageOf(d)).Inc()
	}
	p.Obs.Counter(MetricItems).Add(int64(len(items)))
	p.Obs.Counter(MetricDeclined).Add(int64(declined))
	p.Obs.Gauge(MetricQueueDepth).Set(float64(qdepth))
	return out
}
