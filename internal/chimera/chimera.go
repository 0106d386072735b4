// Package chimera reproduces the paper's Figure-2 architecture: the
// WalmartLabs product-classification system that combines a Gate Keeper,
// a rule-based classifier (whitelist + blacklist), an attribute/value-based
// classifier, a set of learning-based classifiers, a Voting Master and a
// Filter — followed by the crowd-evaluation / analyst-repair loop that keeps
// precision at or above the business gate (92%) while recall improves over
// time.
package chimera

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/evaluate"
	"repro/internal/faultinject"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/serve"
)

// Metric families recorded by the pipeline (beyond the core_exec_* and
// core_rule_* series its instrumented executors emit).
const (
	MetricBatches      = "chimera_batches_total"
	MetricItems        = "chimera_items_total"
	MetricDeclined     = "chimera_declined_total"
	MetricDecisions    = "chimera_decisions_total" // labeled stage=...
	MetricClassifySecs = "chimera_classify_seconds"
	MetricBatchSecs    = "chimera_batch_seconds"
	MetricQueueDepth   = "chimera_manual_queue_depth"
	MetricCrowdSampled = "chimera_crowd_sampled_total"
	MetricFlagged      = "chimera_flagged_total"
	MetricEstPrecision = "chimera_est_precision"
	MetricGateFailures = "chimera_gate_failures_total"
	MetricPatchRules   = "chimera_patch_rules_total"
	MetricRelabeled    = "chimera_relabeled_total"
)

// Config parameterizes the pipeline. Zero values take the paper's settings.
type Config struct {
	Seed uint64
	// PrecisionGate is the business requirement (paper: 0.92).
	PrecisionGate float64
	// RuleWeight is the vote weight of a rule assertion relative to the
	// full ensemble mass (default 2.0: rules out-vote learners).
	RuleWeight float64
	// VoteThreshold is the minimum combined top score to emit a prediction
	// (default 0.5 — an unassisted ensemble must be reasonably confident).
	VoteThreshold float64
	// SampleSize is the crowd sample drawn per batch evaluation (default 150).
	SampleSize int
	// Workers parallelizes batch classification (default 4).
	Workers int
	// MinPatternSupport is how many same-type flagged errors the analyst
	// needs before writing a patch blacklist rule (default 3).
	MinPatternSupport int
	// ImpactThreshold feeds the §5.3 impactful-rule tracker (default 200).
	ImpactThreshold int
	// CacheCapacity bounds the snapshot engine's verdict cache (see
	// serve.VerdictCache): classifier-stage verdicts are memoized by (item
	// fingerprint, snapshot version), so re-submitted items under an
	// unchanged rulebase skip rule evaluation. 0 disables caching (the
	// default — per-rule executor telemetry then counts every serving; with
	// a cache it counts evaluations only).
	CacheCapacity int
	// Obs receives the pipeline's metrics (default obs.Default(), the
	// process-wide registry the CLIs dump with -metrics).
	Obs *obs.Registry
	// Audit receives one decision-provenance record per classified item
	// (sampled; declines and degraded decisions always captured). Default:
	// a fresh obs.NewAuditLog with default capacity and sampling. Pass
	// obs.NewAuditLog(obs.AuditConfig{Capacity: -1}) to disable capture.
	Audit *obs.AuditLog
}

func (c Config) withDefaults() Config {
	if c.PrecisionGate == 0 {
		c.PrecisionGate = 0.92
	}
	if c.RuleWeight == 0 {
		c.RuleWeight = 2.0
	}
	if c.VoteThreshold == 0 {
		c.VoteThreshold = 0.5
	}
	if c.SampleSize == 0 {
		c.SampleSize = 150
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.MinPatternSupport == 0 {
		c.MinPatternSupport = 3
	}
	if c.ImpactThreshold == 0 {
		c.ImpactThreshold = 200
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
	}
	if c.Audit == nil {
		c.Audit = obs.NewAuditLog(obs.AuditConfig{})
	}
	return c
}

// Decision is the pipeline's output for one item.
type Decision struct {
	Item *catalog.Item
	// Type is the predicted product type; empty when Declined.
	Type string
	// Declined marks items routed to the manual classification team.
	Declined bool
	// Reason explains a decline ("low-confidence", "filtered:<type>", …)
	// or names the deciding stage for a classification ("gatekeeper",
	// "rules", "ensemble", "combined").
	Reason string
	// Confidence is the combined normalized score in [0,1].
	Confidence float64
	// Evidence lists the rule IDs that supported the prediction.
	Evidence []string
}

// BatchResult aggregates a processed batch.
type BatchResult struct {
	Decisions []Decision
	// EstPrecision is filled by EvaluateAndImprove.
	EstPrecision float64
	// Accepted is set when the batch passed the precision gate.
	Accepted bool
	// Profile is the batch's telemetry profile (filled by ProcessBatch).
	Profile *BatchProfile
	// SnapshotVersion is the rulebase snapshot the whole batch was
	// classified under; crowd and onboarding audit records inherit it.
	SnapshotVersion uint64
}

// BatchProfile is the per-batch operational profile: where the time went
// and where the items went — the numbers an operator watches per batch
// while the obs registry accumulates the long-run series.
type BatchProfile struct {
	// Items and Declined count the batch's inputs and manual-routed items.
	Items    int `json:"items"`
	Declined int `json:"declined"`
	// DeclineRate is Declined/Items.
	DeclineRate float64 `json:"decline_rate"`
	// Duration is the wall-clock classification time for the whole batch;
	// ItemsPerSec is the derived throughput.
	Duration    time.Duration `json:"duration_ns"`
	ItemsPerSec float64       `json:"items_per_sec"`
	// QueueDepth is the manual-classification queue size after this batch.
	QueueDepth int `json:"queue_depth"`
	// Stages counts decisions per deciding stage ("gatekeeper", "rules",
	// "ensemble", "combined") and per decline family ("declined:no-votes",
	// "declined:ambiguous", "declined:low-confidence", "declined:filtered").
	Stages map[string]int `json:"stages"`
}

// stageOf normalizes a decision into its profile/metrics stage label.
func stageOf(d Decision) string {
	if !d.Declined {
		return d.Reason
	}
	reason := d.Reason
	if i := strings.IndexByte(reason, ':'); i >= 0 {
		reason = reason[:i]
	}
	return "declined:" + reason
}

// Classified returns the emitted decisions.
func (b *BatchResult) Classified() []Decision {
	var out []Decision
	for _, d := range b.Decisions {
		if !d.Declined {
			out = append(out, d)
		}
	}
	return out
}

// DeclineRate returns the fraction of declined items.
func (b *BatchResult) DeclineRate() float64 {
	if len(b.Decisions) == 0 {
		return 0
	}
	n := 0
	for _, d := range b.Decisions {
		if d.Declined {
			n++
		}
	}
	return float64(n) / float64(len(b.Decisions))
}

// TruePrecisionRecall computes precision/recall against ground truth —
// available only in simulation; production uses crowd estimates.
func (b *BatchResult) TruePrecisionRecall() (precision, recall float64) {
	emitted, correct := 0, 0
	for _, d := range b.Decisions {
		if d.Declined {
			continue
		}
		emitted++
		if d.Type == d.Item.TrueType {
			correct++
		}
	}
	if emitted > 0 {
		precision = float64(correct) / float64(emitted)
	}
	if len(b.Decisions) > 0 {
		recall = float64(correct) / float64(len(b.Decisions))
	}
	return precision, recall
}

// Pipeline is the running system.
type Pipeline struct {
	cfg      Config
	rng      *randx.Rand
	Rules    *core.Rulebase
	Ensemble *learn.Ensemble
	Crowd    *crowd.Crowd
	Analyst  *crowd.Analyst
	Tracker  *evaluate.ImpactTracker
	// Obs is the pipeline's metric registry; Trace holds one span tree per
	// processed batch (rendered by the CLIs with -profile); Audit is the
	// decision-provenance ring (tail it via /decisions or the CLI).
	Obs   *obs.Registry
	Trace *obs.Tracer
	Audit *obs.AuditLog

	// snaps owns the immutable rule-executor snapshots the pipeline
	// classifies through (see internal/serve): rebuilt only when the
	// rulebase version changes, swapped atomically, never blocking readers
	// on rule maintenance.
	snaps *serve.Engine

	mu       sync.Mutex
	training []*catalog.Item
	history  []float64 // per-batch estimated precision
	manualQ  int       // items routed to manual classification
	batches  int       // processed batches (names the per-batch spans)
}

// New assembles a pipeline with the standard ensemble (Naive Bayes, kNN,
// averaged perceptron) and fresh crowd/analyst simulators.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	rng := randx.New(cfg.Seed).Split("chimera")
	ens, err := learn.NewEnsemble([]learn.Classifier{
		learn.NewNaiveBayes(), learn.NewKNN(5), learn.NewPerceptron(3),
	}, nil)
	if err != nil {
		panic("chimera: ensemble construction cannot fail: " + err.Error())
	}
	p := &Pipeline{
		cfg:      cfg,
		rng:      rng,
		Rules:    core.NewRulebase(),
		Ensemble: ens,
		Crowd:    crowd.New(crowd.Config{Seed: cfg.Seed + 1}),
		Analyst:  crowd.NewAnalyst("ana", cfg.Seed+2, 0),
		Tracker:  evaluate.NewImpactTracker(cfg.ImpactThreshold),
		Obs:      cfg.Obs,
		Trace:    obs.NewTracer(),
		Audit:    cfg.Audit,
	}
	p.Rules.Instrument(p.Obs)
	p.snaps = serve.NewEngine(p.Rules, serve.EngineOptions{
		Obs:   p.Obs,
		Cache: serve.CacheConfig{Capacity: cfg.CacheCapacity},
	})
	p.Obs.Help(MetricDecisions, "decisions per deciding stage / decline family")
	p.Obs.Help(MetricQueueDepth, "items awaiting manual classification")
	return p
}

// Snapshots returns the pipeline's snapshot engine. Passive by default
// (Classify / ProcessBatch acquire version-cached snapshots synchronously);
// NewServer starts its async rebuild loop for lock-free concurrent serving.
func (p *Pipeline) Snapshots() *serve.Engine { return p.snaps }

// NewServer wraps the pipeline in a snapshot-isolated concurrent server: a
// bounded worker pool classifying submitted batches through the full
// Figure-2 stages, each batch against a single snapshot, while rule
// maintenance proceeds concurrently on p.Rules. Rule mutations are safe
// during serving; retraining the ensemble is not (as before).
func (p *Pipeline) NewServer(opts serve.ServerOptions) *serve.Server[Decision] {
	if opts.Obs == nil {
		opts.Obs = p.Obs
	}
	if opts.Audit == nil {
		opts.Audit = p.Audit // serve-layer failures land in the same provenance log
	}
	return serve.NewServer(p.snaps, func(ctx context.Context, snap *serve.Snapshot, it *catalog.Item) Decision {
		return p.classifyWith(ctx, it, snap)
	}, opts)
}

// NewShardedServer wraps the pipeline in the scatter-gather serving tier
// (see serve.ShardedServer): a consistent-hash router over per-shard servers
// that share one engine snapshotting p.Rules, each classifying through the
// full Figure-2 stages. faults, when non-nil, injects handler latency into
// every shard's workers and shard-targeted stalls via ShardDelay — wire its
// RebuildFault into the tier's engine (ShardedServer.Engine().SetRebuildFault)
// to fault the snapshot lifecycle. The caller owns Shutdown/Close on the
// returned tier; the pipeline (and its own passive engine) remain usable
// afterwards.
//
// The tier's engine instruments its snapshots into opts.Obs (default p.Obs)
// under the pipeline's own series labels, so RuleHealth and /metrics see the
// rules tier traffic fires; so do the serve_snapshot_* and serve_cache_*
// series, which in p.Obs therefore count the pipeline's own engine and cache
// as well as the tier's.
func (p *Pipeline) NewShardedServer(opts serve.ShardedOptions, faults *faultinject.Injector) *serve.ShardedServer[Decision] {
	if opts.Obs == nil {
		opts.Obs = p.Obs
	}
	if opts.Audit == nil {
		opts.Audit = p.Audit
	}
	if opts.Cache.Capacity == 0 && p.cfg.CacheCapacity > 0 {
		// Inherit the pipeline's cache sizing, per shard (see
		// serve.ShardedOptions.Cache: one cache of capacity × shards).
		opts.Cache = serve.CacheConfig{Capacity: p.cfg.CacheCapacity}
	}
	return serve.NewShardedServer(p.Rules, func(ctx context.Context, snap *serve.Snapshot, it *catalog.Item) Decision {
		if d := faults.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
		if d := faults.ShardDelay(serve.ShardFromContext(ctx)); d > 0 {
			time.Sleep(d)
		}
		return p.classifyWith(ctx, it, snap)
	}, opts)
}

// Close stops the snapshot engine's async rebuild loop (a no-op when it was
// never started by NewServer). The pipeline remains usable afterwards.
func (p *Pipeline) Close() { p.snaps.Close() }

// Train sets (or extends) the training data and trains the ensemble.
func (p *Pipeline) Train(items []*catalog.Item) {
	p.mu.Lock()
	p.training = append(p.training, items...)
	data := p.training
	p.mu.Unlock()
	p.Ensemble.Train(data)
}

// TrainingSize returns the current training-set size.
func (p *Pipeline) TrainingSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.training)
}

// ManualQueue returns how many items have been routed to manual
// classification so far.
func (p *Pipeline) ManualQueue() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.manualQ
}

// snapshot returns the snapshot for the hot read paths: the lock-free
// Current when the engine's async loop keeps it fresh (stale by at most the
// debounce window — the documented serving contract), the version-checked
// Acquire otherwise. Acquire reads the rulebase version under its mutex, so
// calling it per request would put the rulebase lock back on the hot path
// the serving layer exists to avoid (see the benchmark note in
// EXPERIMENTS.md).
func (p *Pipeline) snapshot() *serve.Snapshot {
	if p.snaps.Started() {
		return p.snaps.Current()
	}
	return p.snaps.Acquire()
}

// RuleHealth returns the telemetry-ranked health report for the classifier
// rule executor (see core.IndexedExecutor.Health); minConfidence is
// the low-precision floor, typically the business gate. Nil until a batch
// has been processed. The report feeds core.PlanHealthActions /
// Rulebase.ApplyHealthActions — the §4 loop from telemetry to maintenance.
func (p *Pipeline) RuleHealth(minConfidence float64) []core.RuleHealth {
	return p.snapshot().RuleTelemetry().Health(minConfidence)
}

// Classify runs one item through the Figure-2 stages.
func (p *Pipeline) Classify(it *catalog.Item) Decision {
	return p.ClassifyCtx(context.Background(), it)
}

// ClassifyCtx is Classify with decision provenance: the request ID carried
// by ctx (see obs.WithRequestID) is stamped on the item's audit record.
func (p *Pipeline) ClassifyCtx(ctx context.Context, it *catalog.Item) Decision {
	return p.classifyWith(ctx, it, p.snapshot())
}

// classifyWith runs one item through the Figure-2 stages with per-item rule
// execution — the reference path. ProcessBatch reproduces the same decision
// from batch-computed verdicts (gateDecision + voteDecision on the same
// snapshot), which a pipeline test asserts.
func (p *Pipeline) classifyWith(ctx context.Context, it *catalog.Item, snap *serve.Snapshot) Decision {
	start := time.Now()
	gv := snap.Gate().Apply(it)
	gateD := time.Since(start)
	if d, ok := p.gateDecision(it, snap, gv); ok {
		p.auditDecision(ctx, snap.Version(), d, obs.PathPerItem, gv, nil, "gate", gateD, "", 0)
		return d
	}
	start = time.Now()
	rv := snap.ApplyCached(it)
	d := p.voteDecision(it, snap, rv)
	p.auditDecision(ctx, snap.Version(), d, obs.PathPerItem, gv, rv, "gate", gateD, "classify", time.Since(start))
	return d
}

// auditDecision offers one decision to the provenance log. The sampling
// check runs before the record is built, so the sampled-out hot path costs
// two atomic ops and no allocation. gv/rv are the gate and classifier
// verdicts the decision came from (either may be nil); stage name/duration
// pairs with an empty name are dropped.
func (p *Pipeline) auditDecision(ctx context.Context, snapVersion uint64, d Decision, path string,
	gv, rv *core.Verdict, s1 string, d1 time.Duration, s2 string, d2 time.Duration) {
	a := p.Audit
	if !a.Enabled() {
		return
	}
	outcome := obs.OutcomeClassified
	if d.Declined {
		outcome = obs.OutcomeDeclined
	}
	if !a.ShouldCapture(d.Declined || path == obs.PathDegraded) {
		a.CountSampledOut(path, outcome)
		return
	}
	rec := &obs.DecisionRecord{
		RequestID:       obs.RequestID(ctx),
		ItemID:          d.Item.ID,
		SnapshotVersion: snapVersion,
		Path:            path,
		Outcome:         outcome,
		Type:            d.Type,
		Reason:          d.Reason,
		Confidence:      d.Confidence,
	}
	if gv != nil {
		rec.Fired = append(rec.Fired, gv.FiredRuleIDs()...)
		rec.Vetoed = append(rec.Vetoed, gv.VetoingRuleIDs()...)
	}
	if rv != nil {
		rec.Fired = append(rec.Fired, rv.FiredRuleIDs()...)
		rec.Vetoed = append(rec.Vetoed, rv.VetoingRuleIDs()...)
	}
	// A filtered decline is a veto by the Filter rule: name it.
	if fid := filterRuleID(d.Reason); fid != "" {
		rec.Vetoed = append(rec.Vetoed, fid)
	}
	if s1 != "" {
		rec.Stages = append(rec.Stages, obs.StageLatency{Stage: s1, D: d1})
	}
	if s2 != "" {
		rec.Stages = append(rec.Stages, obs.StageLatency{Stage: s2, D: d2})
	}
	a.Observe(rec)
}

// filterRuleID extracts the Filter rule ID from a "filtered:<type> by <id>"
// decline reason ("" for every other reason).
func filterRuleID(reason string) string {
	if !strings.HasPrefix(reason, "filtered:") {
		return ""
	}
	if i := strings.LastIndex(reason, " by "); i >= 0 {
		return reason[i+len(" by "):]
	}
	return ""
}

// gateDecision settles stage 1 (Gate Keeper) from an already-computed gate
// verdict. ok is false when the gate does not decide the item and the
// classifier stages must run.
func (p *Pipeline) gateDecision(it *catalog.Item, snap *serve.Snapshot, gv *core.Verdict) (Decision, bool) {
	if len(gv.FinalTypes()) == 0 {
		return Decision{}, false
	}
	t := gv.FinalTypes()[0]
	if fid, killed := snap.FilterFor(t); killed {
		return Decision{Item: it, Declined: true, Reason: "filtered:" + t + " by " + fid}, true
	}
	return Decision{Item: it, Type: t, Reason: "gatekeeper", Confidence: 1, Evidence: ruleIDs(gv.Evidence(t))}, true
}

// voteDecision runs stages 2–4 (classifiers, Voting Master, Filter) from an
// already-computed classifier-rule verdict.
func (p *Pipeline) voteDecision(it *catalog.Item, snap *serve.Snapshot, rv *core.Verdict) Decision {
	// Stage 2: classifiers.
	ruleTypes := rv.FinalTypes()
	ensPreds := p.Ensemble.Predict(it)

	// Stage 3: Voting Master.
	votes := map[string]float64{}
	for _, t := range ruleTypes {
		votes[t] += p.cfg.RuleWeight
	}
	for _, pr := range ensPreds {
		// Blacklist vetoes and attribute constraints bind the learners too.
		if len(rv.Vetoed[pr.Type]) > 0 {
			continue
		}
		if rv.Allowed != nil && !rv.Allowed[pr.Type] {
			continue
		}
		votes[pr.Type] += pr.Score
	}
	if len(votes) == 0 {
		return p.decline(it, "no-votes")
	}
	type tv struct {
		t string
		v float64
	}
	ranked := make([]tv, 0, len(votes))
	for t, v := range votes {
		ranked = append(ranked, tv{t, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].t < ranked[j].t
	})
	best := ranked[0]
	if len(ranked) > 1 && ranked[1].v == best.v {
		return p.decline(it, "ambiguous")
	}
	if best.v < p.cfg.VoteThreshold {
		return p.decline(it, "low-confidence")
	}

	// Stage 4: Filter.
	if fid, killed := snap.FilterFor(best.t); killed {
		return Decision{Item: it, Declined: true, Reason: "filtered:" + best.t + " by " + fid}
	}

	conf := best.v / (p.cfg.RuleWeight + 1)
	if conf > 1 {
		conf = 1
	}
	source := "ensemble"
	var evidence []string
	for _, t := range ruleTypes {
		if t == best.t {
			source = "rules"
			evidence = ruleIDs(rv.Asserted[best.t])
			if len(ensPreds) > 0 && ensPreds[0].Type == best.t {
				source = "combined"
			}
		}
	}
	return Decision{Item: it, Type: best.t, Reason: source, Confidence: conf, Evidence: evidence}
}

func (p *Pipeline) decline(it *catalog.Item, reason string) Decision {
	return Decision{Item: it, Declined: true, Reason: reason}
}

func ruleIDs(rules []*core.Rule) []string {
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.ID
	}
	sort.Strings(out)
	return out
}

// ProcessBatch classifies a batch in parallel and updates the impact
// tracker and manual-queue accounting. Each batch leaves a span tree in
// p.Trace (prepare → classify → accounting), a BatchProfile on the result,
// and its per-item/per-stage series in p.Obs.
func (p *Pipeline) ProcessBatch(items []*catalog.Item) *BatchResult {
	return p.ProcessBatchCtx(context.Background(), items)
}

// ProcessBatchCtx is ProcessBatch with request-ID propagation: every audit
// record the batch produces carries ctx's request ID (one is generated with
// prefix "batch" when ctx has none).
func (p *Pipeline) ProcessBatchCtx(ctx context.Context, items []*catalog.Item) *BatchResult {
	ctx, _ = obs.EnsureRequestID(ctx, "batch")
	p.mu.Lock()
	batchNo := p.batches
	p.batches++
	p.mu.Unlock()
	span := p.Trace.Start(fmt.Sprintf("batch-%d", batchNo))
	defer span.End()

	prep := span.Child("prepare")
	// One snapshot for the whole batch: every item in it is classified under
	// the same rulebase version, even while maintenance mutates rules.
	snap := p.snaps.Acquire()
	prep.End()
	res := &BatchResult{Decisions: make([]Decision, len(items)), SnapshotVersion: snap.Version()}

	workers := p.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(items) {
		workers = len(items) // no point spawning more goroutines than items
	}
	classify := span.Child("classify")
	latency := p.Obs.Histogram(MetricClassifySecs, obs.LatencyBuckets)
	// Batch-inverted rule execution (core.IndexedExecutor.ApplyBatch): gate
	// the whole batch in one inverted join, then run the classifier stage
	// only on the items the gate left undecided — mirroring the per-item
	// short-circuit, so gate telemetry counts every item and classifier
	// telemetry only the non-gated ones. The per-item loop below then
	// assembles decisions from the precomputed verdicts.
	gvs := snap.GateApplyBatch(items, workers)
	pending := make([]*catalog.Item, 0, len(items))
	pendIdx := make([]int, 0, len(items))
	for i := range items {
		if len(gvs[i].FinalTypes()) == 0 {
			pending = append(pending, items[i])
			pendIdx = append(pendIdx, i)
		}
	}
	rvs := make([]*core.Verdict, len(items))
	if len(pending) > 0 {
		sub := snap.ApplyBatchCached(pending, workers)
		for k, i := range pendIdx {
			rvs[i] = sub[k]
		}
	}
	var wg sync.WaitGroup
	chunk := 0
	if workers > 0 {
		chunk = (len(items) + workers - 1) / workers
	}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(items) {
			break
		}
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				start := time.Now()
				if d, ok := p.gateDecision(items[i], snap, gvs[i]); ok {
					res.Decisions[i] = d
					p.auditDecision(ctx, snap.Version(), d, obs.PathBatchGate, gvs[i], nil, "assemble", time.Since(start), "", 0)
				} else {
					d := p.voteDecision(items[i], snap, rvs[i])
					res.Decisions[i] = d
					p.auditDecision(ctx, snap.Version(), d, obs.PathClassifier, gvs[i], rvs[i], "assemble", time.Since(start), "", 0)
				}
				latency.Observe(time.Since(start).Seconds())
			}
		}(lo, hi)
	}
	wg.Wait()
	elapsed := classify.End()

	// Impact tracking, manual-queue accounting, and the batch profile.
	acct := span.Child("accounting")
	profile := &BatchProfile{Items: len(items), Duration: elapsed, Stages: map[string]int{}}
	touches := map[string]int{}
	for _, d := range res.Decisions {
		profile.Stages[stageOf(d)]++
		if d.Declined {
			profile.Declined++
			continue
		}
		for _, id := range d.Evidence {
			touches[id]++
		}
	}
	if profile.Items > 0 {
		profile.DeclineRate = float64(profile.Declined) / float64(profile.Items)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		profile.ItemsPerSec = float64(profile.Items) / secs
	}
	p.mu.Lock()
	p.manualQ += profile.Declined
	profile.QueueDepth = p.manualQ
	p.mu.Unlock()
	for id, n := range touches {
		p.Tracker.Observe(id, n)
	}
	res.Profile = profile

	p.Obs.Counter(MetricBatches).Inc()
	p.Obs.Counter(MetricItems).Add(int64(profile.Items))
	p.Obs.Counter(MetricDeclined).Add(int64(profile.Declined))
	for stage, n := range profile.Stages {
		p.Obs.Counter(MetricDecisions, "stage", stage).Add(int64(n))
	}
	p.Obs.Histogram(MetricBatchSecs, obs.LatencyBuckets).Observe(elapsed.Seconds())
	p.Obs.Gauge(MetricQueueDepth).Set(float64(profile.QueueDepth))
	acct.End()
	return res
}

// PrecisionHistory returns the per-batch estimated precisions so far.
func (p *Pipeline) PrecisionHistory() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.history...)
}
