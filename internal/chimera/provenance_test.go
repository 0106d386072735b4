package chimera

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// provFixture is fixture with audit capture on full (every decision, no
// sampling) so provenance properties can be asserted exhaustively.
func provFixture(t *testing.T, seed uint64, train bool) (*catalog.Catalog, *Pipeline) {
	t.Helper()
	cat := catalog.New(catalog.Config{Seed: seed, NumTypes: 40})
	p := New(Config{Seed: seed, Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: 1 << 14, SampleEvery: 1})})
	if train {
		p.Train(cat.LabeledData(4000))
	}
	add := func(r *core.Rule, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Rules.Add(r, "ana"); err != nil {
			t.Fatal(err)
		}
	}
	add(core.NewWhitelist("rings?", "rings"))
	add(core.NewWhitelist("jeans?", "jeans"))
	add(core.NewWhitelist("(motor | engine) oils?", "motor oil"))
	add(core.NewBlacklist("olive oils?", "motor oil"))
	add(core.NewGate("(satchel | purse | tote)", "handbags"))
	return cat, p
}

// recordsByItem indexes the audit tail by item ID, failing on duplicates
// within the classification paths (a classified item must yield exactly one
// record; crowd/manual records live on their own paths and are excluded).
func recordsByItem(t *testing.T, p *Pipeline, paths ...string) map[string]*obs.DecisionRecord {
	t.Helper()
	want := map[string]bool{}
	for _, pa := range paths {
		want[pa] = true
	}
	out := map[string]*obs.DecisionRecord{}
	for _, r := range p.Audit.Tail(p.Audit.Capacity()) {
		if !want[r.Path] {
			continue
		}
		if prev, dup := out[r.ItemID]; dup {
			t.Fatalf("item %s has two classification records: %+v and %+v", r.ItemID, prev, r)
		}
		out[r.ItemID] = r
	}
	return out
}

// TestProvenanceBatchPaths is the tentpole property on the batch-inverted
// path: every item ProcessBatch classifies yields exactly one decision
// record, with a non-empty path from the batch vocabulary, the batch's
// snapshot version, the batch request ID, and — for items a blacklist rule
// touched — the vetoing rule named.
func TestProvenanceBatchPaths(t *testing.T) {
	cat, p := provFixture(t, 411, true)
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 400, Epoch: 1})
	items = append(items,
		&catalog.Item{ID: "veto-olive", Attrs: map[string]string{"Title": "extra virgin olive oil 500ml"}},
		&catalog.Item{ID: "gate-satchel", Attrs: map[string]string{"Title": "quilted leather satchel mini"}},
	)
	ctx := obs.WithRequestID(context.Background(), "batch-test-1")
	res := p.ProcessBatchCtx(ctx, items)

	if res.SnapshotVersion == 0 {
		t.Fatal("BatchResult.SnapshotVersion not set")
	}
	recs := recordsByItem(t, p, obs.PathBatchGate, obs.PathClassifier)
	if len(recs) != len(items) {
		t.Fatalf("got %d records for %d items", len(recs), len(items))
	}
	for i, d := range res.Decisions {
		r := recs[items[i].ID]
		if r == nil {
			t.Fatalf("item %s: no record", items[i].ID)
		}
		if r.Path == "" {
			t.Errorf("item %s: empty path", items[i].ID)
		}
		if r.SnapshotVersion != res.SnapshotVersion {
			t.Errorf("item %s: record snapshot %d != batch snapshot %d", items[i].ID, r.SnapshotVersion, res.SnapshotVersion)
		}
		if r.RequestID != "batch-test-1" {
			t.Errorf("item %s: request ID %q not propagated", items[i].ID, r.RequestID)
		}
		if d.Declined != (r.Outcome == obs.OutcomeDeclined) {
			t.Errorf("item %s: decision declined=%v but outcome %q", items[i].ID, d.Declined, r.Outcome)
		}
		if d.Reason != r.Reason {
			t.Errorf("item %s: reason %q != record reason %q", items[i].ID, d.Reason, r.Reason)
		}
	}
	// Gate-decided items take the batch-gate path; voted ones the classifier
	// path — and both must occur in this mixed batch.
	if recs["gate-satchel"].Path != obs.PathBatchGate {
		t.Errorf("gate item path = %q", recs["gate-satchel"].Path)
	}
	if got := recs["veto-olive"]; got.Path != obs.PathClassifier {
		t.Errorf("veto item path = %q", got.Path)
	}
	// The vetoed item names the vetoing blacklist rule — resolvable back to
	// a live blacklist targeting the vetoed type.
	veto := recs["veto-olive"]
	if len(veto.Vetoed) == 0 {
		t.Fatalf("vetoed item carries no vetoing rule: %+v", veto)
	}
	named := false
	for _, id := range veto.Vetoed {
		if r := p.Rules.Get(id); r != nil && r.Kind == core.Blacklist && r.TargetType == "motor oil" {
			named = true
		}
	}
	if !named {
		t.Fatalf("vetoing blacklist not resolvable from %v", veto.Vetoed)
	}
	// The breakdown accounts for every item exactly once across both paths.
	b := p.Audit.Breakdown()
	var total uint64
	for _, outs := range []map[string]uint64{b[obs.PathBatchGate], b[obs.PathClassifier]} {
		for _, n := range outs {
			total += n
		}
	}
	if total != uint64(len(items)) {
		t.Fatalf("breakdown counts %d items, want %d", total, len(items))
	}
}

// TestProvenancePerItemPath: the per-item reference path (ClassifyCtx)
// produces the same exactly-one-record property with per-stage latencies
// (gate, classify) and the caller's request ID.
func TestProvenancePerItemPath(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 412, NumTypes: 40})
	p := New(Config{
		Seed:  412,
		Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: 1 << 12, SampleEvery: 1}),
	})
	p.Train(cat.LabeledData(2000))
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 100, Epoch: 1})
	ctx := obs.WithRequestID(context.Background(), "ref-test-1")
	for _, it := range items {
		p.ClassifyCtx(ctx, it)
	}

	recs := recordsByItem(t, p, obs.PathPerItem)
	if len(recs) != len(items) {
		t.Fatalf("got %d records for %d items", len(recs), len(items))
	}
	for _, it := range items {
		r := recs[it.ID]
		if r.SnapshotVersion != p.Rules.Version() {
			t.Errorf("item %s: snapshot %d != %d", it.ID, r.SnapshotVersion, p.Rules.Version())
		}
		if len(r.Stages) == 0 || r.Stages[0].Stage != "gate" {
			t.Errorf("item %s: per-item record missing gate stage: %+v", it.ID, r.Stages)
		}
		if r.RequestID != "ref-test-1" {
			t.Errorf("item %s: request ID %q, want the caller's", it.ID, r.RequestID)
		}
	}
}

// TestProvenanceServerPath: items classified through the serving tier carry
// the scatter-generated request ID end to end, one ID for the whole batch.
func TestProvenanceServerPath(t *testing.T) {
	cat, p := provFixture(t, 413, true)
	rc := p.NewResilientClient(serve.ShardedOptions{Shards: 3, Workers: 2, QueueDepth: 8}, nil)
	defer rc.Tier().Close()

	items := cat.GenerateBatch(catalog.BatchSpec{Size: 50, Epoch: 1})
	g, err := rc.Process(context.Background(), items)
	if err != nil || g.Served != len(items) {
		t.Fatalf("process: %v (%d served)", err, g.Served)
	}
	recs := recordsByItem(t, p, obs.PathPerItem)
	if len(recs) != len(items) {
		t.Fatalf("got %d records for %d items", len(recs), len(items))
	}
	id := recs[items[0].ID].RequestID
	for i, it := range items {
		r := recs[it.ID]
		if !strings.HasPrefix(r.RequestID, "scatter-") || r.RequestID != id {
			t.Errorf("item %s: request ID %q, want the batch's scatter ID %q", it.ID, r.RequestID, id)
		}
		if r.SnapshotVersion != g.Snapshots[i].Version() {
			t.Errorf("item %s: snapshot %d != served snapshot %d", it.ID, r.SnapshotVersion, g.Snapshots[i].Version())
		}
	}
}

// TestProvenanceDegradedPath: gate-only decisions are always captured (even
// under heavy sampling) with path "degraded" and the serving snapshot's
// version.
func TestProvenanceDegradedPath(t *testing.T) {
	cat := catalog.New(catalog.Config{Seed: 414, NumTypes: 40})
	// SampleEvery 1000: only the decline/degraded bias can explain captures.
	p := New(Config{Seed: 414, Audit: obs.NewAuditLog(obs.AuditConfig{Capacity: 1 << 12, SampleEvery: 1000})})
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 40, Epoch: 1})
	snap := p.Snapshots().Acquire()
	out := p.classifyDegraded(context.Background(), snap, items)
	if len(out) != len(items) {
		t.Fatalf("degraded returned %d decisions", len(out))
	}
	recs := recordsByItem(t, p, obs.PathDegraded)
	if len(recs) != len(items) {
		t.Fatalf("degraded path must capture every item: got %d of %d", len(recs), len(items))
	}
	for _, it := range items {
		r := recs[it.ID]
		if r.SnapshotVersion != snap.Version() {
			t.Errorf("item %s: snapshot %d != %d", it.ID, r.SnapshotVersion, snap.Version())
		}
		if !strings.HasPrefix(r.RequestID, "degraded-") {
			t.Errorf("item %s: request ID %q", it.ID, r.RequestID)
		}
	}
}

// TestProvenanceCrowdAndManual: the evaluation loop leaves crowd records
// (verified/flagged) and onboarding leaves manual-label records, all stamped
// with the batch's snapshot version.
func TestProvenanceCrowdAndManual(t *testing.T) {
	cat, p := provFixture(t, 415, true)
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 300, Epoch: 1})
	res := p.ProcessBatch(items)

	rep, err := p.EvaluateAndImprove(res)
	if err != nil {
		t.Fatal(err)
	}
	crowd := p.Audit.TailFiltered(p.Audit.Capacity(), "", obs.PathCrowd, "")
	if len(crowd) != rep.SampleSize {
		t.Fatalf("crowd records = %d, want sample size %d", len(crowd), rep.SampleSize)
	}
	verified, flagged := 0, 0
	for _, r := range crowd {
		switch r.Outcome {
		case obs.OutcomeVerified:
			verified++
		case obs.OutcomeFlagged:
			flagged++
		default:
			t.Fatalf("crowd record with outcome %q", r.Outcome)
		}
		if r.SnapshotVersion != res.SnapshotVersion {
			t.Errorf("crowd record snapshot %d != %d", r.SnapshotVersion, res.SnapshotVersion)
		}
	}
	if flagged != rep.Flagged || verified != rep.SampleSize-rep.Flagged {
		t.Errorf("crowd outcome split %d/%d, report says %d/%d",
			verified, flagged, rep.SampleSize-rep.Flagged, rep.Flagged)
	}

	orep, err := p.OnboardDeclined(res, 5)
	if err != nil {
		t.Fatal(err)
	}
	manual := p.Audit.TailFiltered(p.Audit.Capacity(), "", obs.PathManual, obs.OutcomeLabeled)
	if len(manual) != orep.Labeled {
		t.Fatalf("manual records = %d, want %d labeled", len(manual), orep.Labeled)
	}
	for _, r := range manual {
		if r.Type == "" {
			t.Errorf("manual record without a label type: %+v", r)
		}
	}
}

// TestProvenanceCachedPath: a decision served from the decision cache is
// audited on path "cached" with what the evaluated decision's record says —
// the same rules fired and vetoed (re-derived from the gate and rule stages
// only), snapshot version and model generation — and the record's JSON
// names the generation.
func TestProvenanceCachedPath(t *testing.T) {
	cat, p := provFixture(t, 414, true)
	p.cache.Store(serve.NewCache[stamp, Decision](serve.CacheConfig{Capacity: 1024}, p.Obs))
	items := cat.GenerateBatch(catalog.BatchSpec{Size: 120, Epoch: 1})
	for pass := 0; pass < 2; pass++ {
		for _, it := range items {
			p.Classify(it)
		}
	}
	evaluated := recordsByItem(t, p, obs.PathPerItem)
	cached := recordsByItem(t, p, obs.PathCached)
	if len(evaluated) != len(items) || len(cached) != len(items) {
		t.Fatalf("got %d evaluated and %d cached records for %d items", len(evaluated), len(cached), len(items))
	}
	vetoes := 0
	for _, it := range items {
		e, c := evaluated[it.ID], cached[it.ID]
		if c.Type != e.Type || c.Reason != e.Reason || c.Outcome != e.Outcome || c.Confidence != e.Confidence ||
			c.SnapshotVersion != e.SnapshotVersion || c.ModelGeneration != e.ModelGeneration ||
			strings.Join(c.Fired, ",") != strings.Join(e.Fired, ",") || strings.Join(c.Vetoed, ",") != strings.Join(e.Vetoed, ",") {
			t.Fatalf("item %s: cached record %+v, evaluated %+v", it.ID, c, e)
		}
		if c.ModelGeneration != 1 {
			t.Fatalf("item %s: model generation %d, want 1 (trained once)", it.ID, c.ModelGeneration)
		}
		vetoes += len(c.Vetoed)
	}
	if vetoes == 0 {
		t.Log("no vetoing rule touched the batch; Vetoed compared empty")
	}
	data, err := json.Marshal(cached[items[0].ID])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"model_generation":1`) {
		t.Fatalf("record JSON lacks model_generation: %s", data)
	}
}
