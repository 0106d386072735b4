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
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// CacheCapacity bounds the pipeline's decision cache (see serve.Cache):
	// whole decisions are memoized by (item fingerprint, stamp), the stamp
	// being the rulebase state of the snapshot (load epoch, version) and the
	// model generation, so a re-submitted item under an unchanged rulebase
	// and model skips every stage. Classify, ProcessBatch and the serving
	// tier all go through it. 0 disables caching (the default — per-rule
	// executor telemetry then counts every serving; with a cache it counts
	// evaluations only).
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
	// Evidence lists the rule IDs that supported the prediction. The slice
	// is the caller's own, on a cache hit too.
	Evidence []string
	// ModelGeneration is the generation of the ensemble model the decision
	// was made with (learn.Model.Generation): 0 while the ensemble is
	// untrained, and on the gate-only degraded path, which reads no model.
	ModelGeneration uint64
}

// stamp is what a cached decision depends on besides the item: the rulebase
// state its snapshot was built at and the generation of the model.
type stamp struct {
	rules core.State
	model uint64
}

func stampOf(snap *serve.Snapshot, model *learn.Model) stamp {
	return stamp{snap.State(), model.Generation()}
}

// decisionCache memoizes whole decisions by (item fingerprint, stamp).
type decisionCache = serve.Cache[stamp, Decision]

// cacheable returns d as the cache keeps it: no item (the entry must not keep
// one alive, and a hit is served for the caller's) and an Evidence slice of
// its own, so the caller that computed d may change d's.
func (d Decision) cacheable() Decision {
	d.Item, d.Evidence = nil, slices.Clone(d.Evidence)
	return d
}

// servedFor returns the cached decision d as served for it: with it as the
// item and an Evidence slice the caller owns.
func (d Decision) servedFor(it *catalog.Item) Decision {
	d.Item, d.Evidence = it, slices.Clone(d.Evidence)
	return d
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
	// ModelGeneration is the ensemble model the whole batch was classified
	// with (see Decision.ModelGeneration).
	ModelGeneration uint64
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

// stageOf normalizes a decision into its profile/metrics stage label. The
// pipeline's own decline families map to constants, so labelling a decline
// allocates nothing.
func stageOf(d Decision) string {
	if !d.Declined {
		return d.Reason
	}
	switch reason, _, _ := strings.Cut(d.Reason, ":"); reason {
	case "no-votes":
		return "declined:no-votes"
	case "ambiguous":
		return "declined:ambiguous"
	case "low-confidence":
		return "declined:low-confidence"
	case "filtered":
		return "declined:filtered"
	case "degraded":
		return "declined:degraded"
	default:
		return "declined:" + reason
	}
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

	// snaps is the pipeline's one snapshot engine (see internal/serve),
	// shared by Classify, ProcessBatch and every tier: rebuilt only when the
	// rulebase state changes, swapped atomically, never blocking readers on
	// rule maintenance.
	snaps *serve.Engine
	// cache is the pipeline's one decision cache (nil when disabled): sized
	// by Config.CacheCapacity, or by the first caching tier's
	// ShardedOptions.Cache when the config set none.
	cache atomic.Pointer[decisionCache]

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
	p := &Pipeline{
		cfg:      cfg,
		rng:      rng,
		Rules:    core.NewRulebase(),
		Ensemble: newEnsemble(),
		Crowd:    crowd.New(crowd.Config{Seed: cfg.Seed + 1}),
		Analyst:  crowd.NewAnalyst("ana", cfg.Seed+2, 0),
		Tracker:  evaluate.NewImpactTracker(cfg.ImpactThreshold),
		Obs:      cfg.Obs,
		Trace:    obs.NewTracer(),
		Audit:    cfg.Audit,
	}
	p.Rules.Instrument(p.Obs)
	p.snaps = serve.NewEngine(p.Rules, serve.EngineOptions{Obs: p.Obs})
	if cfg.CacheCapacity > 0 {
		p.cache.Store(serve.NewCache[stamp, Decision](serve.CacheConfig{Capacity: cfg.CacheCapacity}, p.Obs))
	}
	p.Obs.Help(MetricDecisions, "decisions per deciding stage / decline family")
	p.Obs.Help(MetricQueueDepth, "items awaiting manual classification")
	return p
}

// newEnsemble returns the standard untrained ensemble: Naive Bayes, kNN(5)
// and a 3-epoch averaged perceptron under equal weights.
func newEnsemble() *learn.Ensemble {
	ens, err := learn.NewEnsemble([]learn.Classifier{
		learn.NewNaiveBayes(), learn.NewKNN(5), learn.NewPerceptron(3),
	}, nil)
	if err != nil {
		panic("chimera: ensemble construction cannot fail: " + err.Error())
	}
	return ens
}

// Snapshots returns the pipeline's one snapshot engine: Classify,
// ProcessBatch and RuleHealth Acquire from it, and every tier serves from it
// (tier.Engine()), so a rulebase state is built once whatever serves it.
func (p *Pipeline) Snapshots() *serve.Engine { return p.snaps }

// NewShardedServer wraps the pipeline in the scatter-gather serving tier
// (see serve.ShardedServer): a consistent-hash router over per-shard servers
// that serve from the pipeline's engine while they run, each classifying
// through the full Figure-2 stages and the pipeline's decision cache.
// faults, when non-nil, injects handler latency into every shard's workers
// and shard-targeted stalls via ShardDelay — wire its RebuildFault into the
// engine (ShardedServer.Engine().SetRebuildFault) to fault the snapshot
// lifecycle. The caller owns Shutdown/Close on the returned tier; the
// pipeline remains usable afterwards. Rule mutations and Train are both safe
// during serving: each item is decided under one snapshot and one published
// model, whose generation it records.
//
// A pipeline without a decision cache gets one of opts.Cache.Capacity ×
// shards entries, registered in opts.Obs; one that has one (from
// Config.CacheCapacity or an earlier tier) shares it with this tier, and
// opts.Cache is then not read.
//
// opts.Obs (default p.Obs) receives the serve_shard_* and serve_scatter_*
// families; the engine's series and rule telemetry stay in p.Obs.
func (p *Pipeline) NewShardedServer(opts serve.ShardedOptions, faults *faultinject.Injector) *serve.ShardedServer[Decision] {
	if opts.Obs == nil {
		opts.Obs = p.Obs
	}
	if opts.Audit == nil {
		opts.Audit = p.Audit
	}
	tier := serve.NewShardedServerOn(p.snaps, func(ctx context.Context, snap *serve.Snapshot, it *catalog.Item) Decision {
		if d := faults.HandlerDelay(); d > 0 {
			time.Sleep(d)
		}
		if d := faults.ShardDelay(serve.ShardFromContext(ctx)); d > 0 {
			time.Sleep(d)
		}
		return p.decide(ctx, it, snap, p.Ensemble.Model(), perItemPaths)
	}, opts)
	if opts.Cache.Capacity > 0 {
		p.mu.Lock()
		if p.cache.Load() == nil {
			p.cache.Store(serve.NewCache[stamp, Decision](serve.CacheConfig{Capacity: opts.Cache.Capacity * tier.Shards()}, opts.Obs))
		}
		p.mu.Unlock()
	}
	return tier
}

// CacheStats snapshots the decision cache's counters (all zero when the
// pipeline has none).
func (p *Pipeline) CacheStats() serve.CacheStats { return p.cache.Load().Stats() }

// Close stops the engine's rebuild loop, dropping the holds of any tier
// still running (it then serves its last snapshot until shut down). The
// pipeline remains usable afterwards, and a later tier starts the loop anew.
func (p *Pipeline) Close() { p.snaps.Close() }

// Train sets (or extends) the training data and trains the ensemble, which
// publishes the next model generation. Safe while the pipeline serves:
// requests in flight finish on the model they read.
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

// RuleHealth returns the telemetry-ranked health report for the classifier
// rule executor (see core.IndexedExecutor.Health); minConfidence is
// the low-precision floor, typically the business gate. Nil until a batch
// has been processed. The report feeds core.PlanHealthActions /
// Rulebase.ApplyHealthActions — the §4 loop from telemetry to maintenance.
func (p *Pipeline) RuleHealth(minConfidence float64) []core.RuleHealth {
	return p.snaps.Acquire().Rules().Health(minConfidence)
}

// Classify runs one item through the Figure-2 stages.
func (p *Pipeline) Classify(it *catalog.Item) Decision {
	return p.ClassifyCtx(context.Background(), it)
}

// ClassifyCtx is Classify with decision provenance: the request ID carried
// by ctx (see obs.WithRequestID) is stamped on the item's audit record.
func (p *Pipeline) ClassifyCtx(ctx context.Context, it *catalog.Item) Decision {
	return p.decide(ctx, it, p.snaps.Acquire(), p.Ensemble.Model(), perItemPaths)
}

// auditPaths are the audit-record paths an entry point labels its misses
// with: gate for items the Gate Keeper decides, vote for the rest.
type auditPaths struct{ gate, vote string }

var (
	perItemPaths = auditPaths{obs.PathPerItem, obs.PathPerItem}      // Classify, the tier
	batchPaths   = auditPaths{obs.PathBatchGate, obs.PathClassifier} // ProcessBatch
)

// decide is the one per-item decision path, shared by Classify,
// ProcessBatch and the serving tier: a hit serves the decision cached at
// (item fingerprint, stamp) and runs no stage; a miss runs classifyWith and
// caches its decision, and concurrent misses on one item coalesce. Without a
// cache it is classifyWith.
func (p *Pipeline) decide(ctx context.Context, it *catalog.Item, snap *serve.Snapshot, model *learn.Model, paths auditPaths) Decision {
	c := p.cache.Load()
	if c == nil {
		return p.classifyWith(ctx, it, snap, model, paths)
	}
	start := time.Now()
	var d Decision
	cached, hit := c.Do(it.Fingerprint(), stampOf(snap, model), func() Decision {
		d = p.classifyWith(ctx, it, snap, model, paths)
		return d.cacheable()
	})
	if !hit {
		return d
	}
	d = cached.servedFor(it)
	p.auditDecision(ctx, snap, d, obs.PathCached, nil, nil, "cache", time.Since(start), "", 0)
	return d
}

// classifyWith runs one item through the Figure-2 stages under one snapshot
// and one model, and audits the decision on the path paths names.
func (p *Pipeline) classifyWith(ctx context.Context, it *catalog.Item, snap *serve.Snapshot, model *learn.Model, paths auditPaths) Decision {
	start := time.Now()
	gv := snap.Gate().Apply(it)
	gateD := time.Since(start)
	if d, ok := p.gateDecision(it, snap, gv); ok {
		d.ModelGeneration = model.Generation()
		p.auditDecision(ctx, snap, d, paths.gate, gv, nil, "gate", gateD, "", 0)
		return d
	}
	start = time.Now()
	rv := snap.Rules().Apply(it)
	d := p.voteDecision(it, snap, model, rv)
	d.ModelGeneration = model.Generation()
	p.auditDecision(ctx, snap, d, paths.vote, gv, rv, "gate", gateD, "classify", time.Since(start))
	return d
}

// auditDecision offers one decision to the provenance log. The sampling
// check runs before the record is built, so the sampled-out hot path costs
// two atomic ops and no allocation. gv/rv are the gate and classifier
// verdicts the decision came from (either may be nil); a cache hit
// (obs.PathCached) has none, so a captured one re-runs the gate and rule
// stages on snap — only those — to name the rules. Stage name/duration pairs
// with an empty name are dropped.
func (p *Pipeline) auditDecision(ctx context.Context, snap *serve.Snapshot, d Decision, path string,
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
	if path == obs.PathCached {
		gv = snap.Gate().Apply(d.Item)
		if len(gv.FinalTypes()) == 0 {
			rv = snap.Rules().Apply(d.Item)
		}
	}
	rec := &obs.DecisionRecord{
		RequestID:       obs.RequestID(ctx),
		ItemID:          d.Item.ID,
		SnapshotVersion: snap.Version(),
		ModelGeneration: d.ModelGeneration,
		Path:            path,
		Outcome:         outcome,
		Type:            d.Type,
		Reason:          d.Reason,
		Confidence:      d.Confidence,
	}
	if gv != nil {
		rec.Fired, rec.Vetoed = gv.FiredRuleIDs(), gv.VetoingRuleIDs()
	}
	if rv != nil {
		rec.Fired = appendIDs(rec.Fired, rv.FiredRuleIDs())
		rec.Vetoed = appendIDs(rec.Vetoed, rv.VetoingRuleIDs())
	}
	// A filtered decline is a veto by the Filter rule: name it.
	if fid := filterRuleID(d.Reason); fid != "" {
		rec.Vetoed = append(rec.Vetoed, fid)
	}
	if s1 != "" || s2 != "" {
		rec.Stages = make([]obs.StageLatency, 0, 2)
	}
	if s1 != "" {
		rec.Stages = append(rec.Stages, obs.StageLatency{Stage: s1, D: d1})
	}
	if s2 != "" {
		rec.Stages = append(rec.Stages, obs.StageLatency{Stage: s2, D: d2})
	}
	a.Observe(rec)
}

// appendIDs is append(a, b...) that hands back b itself when a is empty, so
// the common one-verdict record copies nothing.
func appendIDs(a, b []string) []string {
	if len(a) == 0 {
		return b
	}
	return append(a, b...)
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
	finals := gv.FinalTypes()
	if len(finals) == 0 {
		return Decision{}, false
	}
	t := finals[0]
	if fid, killed := snap.FilterFor(t); killed {
		return Decision{Item: it, Declined: true, Reason: "filtered:" + t + " by " + fid}, true
	}
	return Decision{Item: it, Type: t, Reason: "gatekeeper", Confidence: 1, Evidence: ruleIDs(gv.Evidence(t))}, true
}

// voteDecision runs stages 2–4 (classifiers, Voting Master, Filter) from an
// already-computed classifier-rule verdict and one model.
func (p *Pipeline) voteDecision(it *catalog.Item, snap *serve.Snapshot, model *learn.Model, rv *core.Verdict) Decision {
	// Stage 2: classifiers.
	ruleTypes := rv.FinalTypes()
	ensPreds := model.Predict(it)

	// Stage 3: Voting Master. Only the rule types and the ensemble's top
	// types get a vote, so a short slice scanned linearly stands in for a map
	// and a sort.
	var buf [16]typeVote
	votes := buf[:0]
	for _, t := range ruleTypes {
		votes = addVote(votes, t, p.cfg.RuleWeight)
	}
	for _, pr := range ensPreds {
		// Blacklist vetoes and attribute constraints bind the learners too.
		if rv.Vetoes(pr.Type) || !rv.Admits(pr.Type) {
			continue
		}
		votes = addVote(votes, pr.Type, pr.Score)
	}
	if len(votes) == 0 {
		return p.decline(it, "no-votes")
	}
	// best is the maximum under (vote desc, type asc); a tie on the vote
	// alone makes the item ambiguous.
	best := votes[0]
	for _, tv := range votes[1:] {
		if tv.v > best.v || tv.v == best.v && tv.t < best.t {
			best = tv
		}
	}
	for _, tv := range votes {
		if tv.v == best.v && tv.t != best.t {
			return p.decline(it, "ambiguous")
		}
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
			evidence = ruleIDs(rv.AssertedBy(best.t))
			if len(ensPreds) > 0 && ensPreds[0].Type == best.t {
				source = "combined"
			}
		}
	}
	return Decision{Item: it, Type: best.t, Reason: source, Confidence: conf, Evidence: evidence}
}

// typeVote is one type's summed vote in the Voting Master.
type typeVote struct {
	t string
	v float64
}

// addVote adds v to t's entry, appending one that starts at zero.
func addVote(votes []typeVote, t string, v float64) []typeVote {
	i := 0
	for i < len(votes) && votes[i].t != t {
		i++
	}
	if i == len(votes) {
		votes = append(votes, typeVote{t: t})
	}
	votes[i].v += v
	return votes
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

// batchChunk is how many consecutive items a ProcessBatch worker takes off
// the shared cursor at a time.
const batchChunk = 8

// ProcessBatch classifies a batch in parallel, each item through the same
// decision path as Classify, and updates the impact tracker and manual-queue
// accounting. Each batch leaves a span tree in p.Trace (prepare → classify →
// accounting), a BatchProfile on the result, and its per-item/per-stage
// series in p.Obs.
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
	// One snapshot and one model for the whole batch: every item in it is
	// classified under the same rulebase state and model generation, even
	// while maintenance mutates rules or the ensemble retrains.
	snap := p.snaps.Acquire()
	model := p.Ensemble.Model()
	prep.End()
	res := &BatchResult{Decisions: make([]Decision, len(items)), SnapshotVersion: snap.Version(), ModelGeneration: model.Generation()}

	classify := span.Child("classify")
	latency := p.Obs.Histogram(MetricClassifySecs, obs.LatencyBuckets)
	// Workers pull batchChunk-item chunks off a shared cursor rather than
	// splitting the batch evenly: a gate-decided item costs about a
	// microsecond and a trained one about a hundred, so a fixed split leaves
	// a worker idle while another finishes the expensive half.
	workers := min(max(p.cfg.Workers, 1), (len(items)+batchChunk-1)/batchChunk)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(batchChunk)) - batchChunk
				if lo >= len(items) {
					return
				}
				for i := lo; i < min(lo+batchChunk, len(items)); i++ {
					start := time.Now()
					res.Decisions[i] = p.decide(ctx, items[i], snap, model, batchPaths)
					latency.Observe(time.Since(start).Seconds())
				}
			}
		}()
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
