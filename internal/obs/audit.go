package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the decision-provenance half of the observability layer: the
// paper's analyst loop (§3.3, §4) needs to answer "why did item X get verdict
// Y five minutes ago, and under which rule-set version?" — a question the
// aggregate metric series cannot answer. Every serving path (per-item, batch
// gate, batch classifier, decision-cache hit, degraded, crowd evaluation,
// manual onboarding) writes one DecisionRecord per item into a
// fixed-capacity sampled ring buffer (AuditLog), tagged with the request ID
// that entered the system at serve.Server.SubmitCtx and the snapshot version
// and model generation the decision was made under. The ring is lock-free on the write path: one atomic fetch-add for
// the slot, one atomic pointer store for the record.

// Decision paths. A record's Path names the serving route that produced it.
const (
	PathPerItem    = "per-item"   // reference path: Classify / server handler
	PathBatchGate  = "batch-gate" // ProcessBatch, decided by the Gate Keeper
	PathClassifier = "classifier" // ProcessBatch, decided by classifiers + voting
	PathDegraded   = "degraded"   // gate-only degraded fallback
	PathCached     = "cached"     // served from the decision cache (any entry point)
	PathCrowd      = "crowd"      // crowd-verification of a sampled decision
	PathManual     = "manual"     // manual-team labeling of declined items
	PathServe      = "serve"      // serving-layer failure outcomes (shed, drain, deadline)
)

// Decision outcomes. A record's Outcome is the failure-taxonomy bucket the
// item landed in (see DESIGN.md): classified and declined are the pipeline's
// own outcomes; shed, drain-declined and deadline-expired are the serving
// layer's; verified/flagged are crowd-evaluation outcomes; labeled is the
// manual team's.
const (
	OutcomeClassified = "classified"
	OutcomeDeclined   = "declined"
	OutcomeShed       = "shed"
	OutcomeDrain      = "drain-declined"
	OutcomeExpired    = "deadline-expired"
	OutcomeVerified   = "verified"
	OutcomeFlagged    = "flagged"
	OutcomeLabeled    = "labeled"
)

// StageLatency is one named stage's share of a decision's wall-clock time.
type StageLatency struct {
	Stage string        `json:"stage"`
	D     time.Duration `json:"nanos"`
}

// DecisionRecord is the provenance of one per-item decision: who asked
// (RequestID), what was decided (Outcome, Type, Reason), on which rule-set
// state (SnapshotVersion), through which serving route (Path), because of
// which rules (Fired / Vetoed), and where the time went (Stages). Records
// are immutable once observed; readers share them.
type DecisionRecord struct {
	// Seq is the capture sequence number, assigned by AuditLog.Observe.
	Seq uint64 `json:"seq"`
	// RequestID ties the record to one submission (propagated via context
	// from serve.Server.SubmitCtx; batch-generated otherwise).
	RequestID string `json:"request_id,omitempty"`
	// ItemID is the classified item.
	ItemID string `json:"item_id"`
	// SnapshotVersion is the rulebase logical clock the deciding snapshot
	// was built at (0 when the outcome precedes snapshot pick-up, e.g. shed).
	SnapshotVersion uint64 `json:"snapshot_version"`
	// ModelGeneration is the generation of the ensemble model the decision
	// was made with (0 while untrained, and when no model was read: degraded
	// gate-only decisions and serving-layer failures).
	ModelGeneration uint64 `json:"model_generation"`
	// Path is the serving route (see the Path* constants).
	Path string `json:"path"`
	// Outcome is the failure-taxonomy bucket (see the Outcome* constants).
	Outcome string `json:"outcome"`
	// Type is the emitted product type (empty on declines).
	Type string `json:"type,omitempty"`
	// Reason is the decline reason or the deciding stage.
	Reason string `json:"reason,omitempty"`
	// Confidence is the decision confidence in [0,1].
	Confidence float64 `json:"confidence,omitempty"`
	// Fired lists the rule IDs whose assertions supported the decision.
	Fired []string `json:"rules_fired,omitempty"`
	// Vetoed lists the rule IDs that vetoed or filtered a candidate type.
	Vetoed []string `json:"rules_vetoed,omitempty"`
	// Stages is the per-stage latency breakdown, in decision order.
	Stages []StageLatency `json:"stages,omitempty"`
	// Time is the capture wall-clock time.
	Time time.Time `json:"time"`
}

// Biased reports whether the record is always captured regardless of the
// sampling stride: every outcome except a plain classification is rare and
// operationally interesting (declines, degraded decisions, serving-layer
// failures), so the ring keeps all of them.
func (r *DecisionRecord) Biased() bool {
	return r.Outcome != OutcomeClassified || r.Path == PathDegraded
}

// Matches reports whether the record passes the given filters; empty filter
// values match everything. ruleID matches against both Fired and Vetoed.
func (r *DecisionRecord) Matches(ruleID, path, outcome string) bool {
	if path != "" && r.Path != path {
		return false
	}
	if outcome != "" && r.Outcome != outcome {
		return false
	}
	if ruleID != "" {
		for _, id := range r.Fired {
			if id == ruleID {
				return true
			}
		}
		for _, id := range r.Vetoed {
			if id == ruleID {
				return true
			}
		}
		return false
	}
	return true
}

// DefaultAuditCapacity is the default ring size: large enough to hold a few
// serving batches of context around an incident, small enough (~a few MB of
// records) to stay resident forever.
const DefaultAuditCapacity = 4096

// DefaultAuditSampleEvery is the default sampling stride for unbiased
// (plain-classified) records: 1 in N is captured. Declines, degraded
// decisions and serving-layer failures bypass the stride (see
// DecisionRecord.Biased). The stride keeps audit capture inside the ≤5%
// overhead budget on the hot batch path while the bias guarantees the
// records an operator actually greps for are always there.
const DefaultAuditSampleEvery = 8

// AuditConfig parameterizes an AuditLog. Zero values take defaults.
type AuditConfig struct {
	// Capacity is the ring size in records (DefaultAuditCapacity when 0;
	// negative disables capture entirely — Observe becomes a no-op).
	Capacity int
	// SampleEvery captures 1 in N unbiased records (DefaultAuditSampleEvery
	// when 0; 1 captures everything). Biased records are always captured.
	SampleEvery int
}

// AuditLog is a fixed-capacity, lock-free ring of sampled DecisionRecords
// plus exact per-(path,outcome) totals over every offered record (sampled
// out or not). Writers pay one atomic fetch-add and one atomic store per
// captured record; readers (Tail, Breakdown) never block writers.
type AuditLog struct {
	slots       []atomic.Pointer[DecisionRecord]
	seq         atomic.Uint64 // capture sequence / ring write cursor
	offered     atomic.Uint64 // all records offered to Observe
	sampledOut  atomic.Uint64 // unbiased records skipped by the stride
	stride      atomic.Uint64 // round-robin clock for the sampling stride
	sampleEvery uint64
	disabled    bool

	countMu sync.RWMutex
	counts  map[countKey]*atomic.Uint64 // total offered per (path, outcome)
}

// countKey is one per-(path, outcome) total's key. A struct of the two
// strings, not their concatenation: building the key must not allocate on
// the sampled-out path.
type countKey struct{ path, outcome string }

// NewAuditLog builds an audit log from cfg. A nil *AuditLog is safe to use
// everywhere (all methods no-op), as is one built with a negative Capacity.
func NewAuditLog(cfg AuditConfig) *AuditLog {
	if cfg.Capacity < 0 {
		return &AuditLog{disabled: true}
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultAuditCapacity
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultAuditSampleEvery
	}
	return &AuditLog{
		slots:       make([]atomic.Pointer[DecisionRecord], cfg.Capacity),
		sampleEvery: uint64(cfg.SampleEvery),
		counts:      map[countKey]*atomic.Uint64{},
	}
}

// Enabled reports whether the log captures records at all.
func (a *AuditLog) Enabled() bool { return a != nil && !a.disabled }

// Capacity returns the ring size (0 when disabled).
func (a *AuditLog) Capacity() int {
	if !a.Enabled() {
		return 0
	}
	return len(a.slots)
}

// SampleEvery returns the configured unbiased sampling stride.
func (a *AuditLog) SampleEvery() int {
	if !a.Enabled() {
		return 0
	}
	return int(a.sampleEvery)
}

// ShouldCapture reports whether the next record with the given bias would be
// captured, advancing the sampling stride for unbiased records. Hot paths
// call this before building a record so a sampled-out decision costs one
// atomic increment, not an allocation.
func (a *AuditLog) ShouldCapture(biased bool) bool {
	if !a.Enabled() {
		return false
	}
	if biased || a.sampleEvery == 1 {
		return true
	}
	return a.stride.Add(1)%a.sampleEvery == 0
}

// Count records one offered decision in the exact per-(path,outcome) totals
// without capturing anything — the path for records that ShouldCapture
// sampled out. Observe calls it internally for captured records.
func (a *AuditLog) Count(path, outcome string) {
	if !a.Enabled() {
		return
	}
	a.offered.Add(1)
	a.counter(path, outcome).Add(1)
}

// counter returns the get-or-create total for (path, outcome).
func (a *AuditLog) counter(path, outcome string) *atomic.Uint64 {
	key := countKey{path, outcome}
	a.countMu.RLock()
	c, ok := a.counts[key]
	a.countMu.RUnlock()
	if ok {
		return c
	}
	a.countMu.Lock()
	defer a.countMu.Unlock()
	if c, ok = a.counts[key]; ok {
		return c
	}
	c = &atomic.Uint64{}
	a.counts[key] = c
	return c
}

// Observe captures rec into the ring (assigning its Seq and Time when unset)
// and counts it in the breakdown. The caller must have already decided to
// capture (ShouldCapture); records are immutable after Observe. For a
// sampled-out record call Count instead, and SampledOut to account for it.
func (a *AuditLog) Observe(rec *DecisionRecord) {
	if !a.Enabled() || rec == nil {
		return
	}
	a.Count(rec.Path, rec.Outcome)
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	seq := a.seq.Add(1)
	rec.Seq = seq
	a.slots[(seq-1)%uint64(len(a.slots))].Store(rec)
}

// CountSampledOut accounts for one unbiased record the stride skipped.
func (a *AuditLog) CountSampledOut(path, outcome string) {
	if !a.Enabled() {
		return
	}
	a.sampledOut.Add(1)
	a.Count(path, outcome)
}

// Captured returns how many records were written into the ring so far.
func (a *AuditLog) Captured() uint64 {
	if !a.Enabled() {
		return 0
	}
	return a.seq.Load()
}

// Offered returns how many records were offered (captured + sampled out).
func (a *AuditLog) Offered() uint64 {
	if !a.Enabled() {
		return 0
	}
	return a.offered.Load()
}

// SampledOut returns how many unbiased records the stride skipped.
func (a *AuditLog) SampledOut() uint64 {
	if !a.Enabled() {
		return 0
	}
	return a.sampledOut.Load()
}

// Tail returns up to n of the most recent captured records, oldest first.
// The read is lock-free and best-effort under concurrent writers: a slot
// being overwritten mid-read yields either the old or the new record, never
// a torn one (records are immutable; the slot is an atomic pointer).
func (a *AuditLog) Tail(n int) []*DecisionRecord {
	return a.TailFiltered(n, "", "", "")
}

// TailFiltered is Tail restricted to records matching the given filters
// (empty strings match everything); it returns up to n matching records from
// the ring, oldest first.
func (a *AuditLog) TailFiltered(n int, ruleID, path, outcome string) []*DecisionRecord {
	if !a.Enabled() || n <= 0 {
		return nil
	}
	cap64 := uint64(len(a.slots))
	head := a.seq.Load()
	span := head
	if span > cap64 {
		span = cap64
	}
	out := make([]*DecisionRecord, 0, min(n, int(span)))
	// Walk backwards from the newest slot, collecting matches.
	for i := uint64(0); i < span && len(out) < n; i++ {
		rec := a.slots[(head-1-i)%cap64].Load()
		if rec == nil {
			continue
		}
		if rec.Matches(ruleID, path, outcome) {
			out = append(out, rec)
		}
	}
	// Reverse to chronological order and settle races (a concurrent writer
	// may have lapped a slot between loads) by sorting on Seq.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Breakdown returns the exact per-path, per-outcome totals over every record
// offered so far — the drill summary's "where did the items go", unaffected
// by sampling.
func (a *AuditLog) Breakdown() map[string]map[string]uint64 {
	if !a.Enabled() {
		return nil
	}
	out := map[string]map[string]uint64{}
	a.countMu.RLock()
	defer a.countMu.RUnlock()
	for key, c := range a.counts {
		m := out[key.path]
		if m == nil {
			m = map[string]uint64{}
			out[key.path] = m
		}
		m[key.outcome] = c.Load()
	}
	return out
}

// FormatBreakdown renders a Breakdown as sorted, aligned text lines
// ("path/outcome  count"), the shape the chimera CLI prints after a drill.
func FormatBreakdown(b map[string]map[string]uint64) string {
	type row struct {
		key string
		n   uint64
	}
	var rows []row
	for path, m := range b {
		for outcome, n := range m {
			rows = append(rows, row{path + "/" + outcome, n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	var out []byte
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-32s %8s\n", r.key, strconv.FormatUint(r.n, 10))...)
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Request-ID propagation
// ---------------------------------------------------------------------------

// requestIDKey is the context key for the request ID.
type requestIDKey struct{}

// reqSeq numbers generated request IDs, process-wide.
var reqSeq atomic.Uint64

// NewRequestID returns a process-unique request ID with the given prefix
// ("prefix-N"). IDs are sequence numbers, not random: drills and tests stay
// deterministic, and the sequence itself is useful ordering evidence.
func NewRequestID(prefix string) string {
	return prefix + "-" + strconv.FormatUint(reqSeq.Add(1), 10)
}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request ID, or "" when none was attached.
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// EnsureRequestID returns a context that definitely carries a request ID,
// generating one with the prefix when absent, plus the ID itself. This is
// the serving layer's entry hook: every submission gets exactly one ID that
// then flows through snapshots, executors and the pipeline into the audit
// log.
func EnsureRequestID(ctx context.Context, prefix string) (context.Context, string) {
	if id := RequestID(ctx); id != "" {
		return ctx, id
	}
	id := NewRequestID(prefix)
	return WithRequestID(ctx, id), id
}
