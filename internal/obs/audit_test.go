package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func rec(item, path, outcome string, fired ...string) *DecisionRecord {
	return &DecisionRecord{ItemID: item, Path: path, Outcome: outcome, Fired: fired, SnapshotVersion: 1}
}

// TestAuditLogCaptureAndTail: captured records come back from Tail in
// chronological order, capped by the ring capacity.
func TestAuditLogCaptureAndTail(t *testing.T) {
	a := NewAuditLog(AuditConfig{Capacity: 4, SampleEvery: 1})
	for i := 0; i < 6; i++ {
		a.Observe(rec(fmt.Sprintf("item-%d", i), PathPerItem, OutcomeClassified))
	}
	if got := a.Captured(); got != 6 {
		t.Fatalf("Captured = %d, want 6", got)
	}
	tail := a.Tail(10)
	if len(tail) != 4 {
		t.Fatalf("Tail returned %d records, want 4 (ring capacity)", len(tail))
	}
	for i, r := range tail {
		want := fmt.Sprintf("item-%d", i+2) // items 0,1 were overwritten
		if r.ItemID != want {
			t.Errorf("tail[%d].ItemID = %q, want %q", i, r.ItemID, want)
		}
		if i > 0 && tail[i].Seq <= tail[i-1].Seq {
			t.Errorf("tail not in Seq order: %d then %d", tail[i-1].Seq, tail[i].Seq)
		}
	}
	if short := a.Tail(2); len(short) != 2 || short[1].ItemID != "item-5" {
		t.Errorf("Tail(2) = %+v, want the 2 newest", short)
	}
}

// TestAuditLogSamplingBias: unbiased records follow the stride; declines and
// degraded-path records are always captured.
func TestAuditLogSamplingBias(t *testing.T) {
	a := NewAuditLog(AuditConfig{Capacity: 128, SampleEvery: 4})
	captured := 0
	for i := 0; i < 40; i++ {
		r := rec(fmt.Sprintf("ok-%d", i), PathBatchGate, OutcomeClassified)
		if a.ShouldCapture(r.Biased()) {
			a.Observe(r)
			captured++
		} else {
			a.CountSampledOut(r.Path, r.Outcome)
		}
	}
	if captured != 10 {
		t.Errorf("captured %d of 40 at stride 4, want 10", captured)
	}
	if got := a.SampledOut(); got != 30 {
		t.Errorf("SampledOut = %d, want 30", got)
	}
	for i := 0; i < 5; i++ {
		r := rec(fmt.Sprintf("bad-%d", i), PathClassifier, OutcomeDeclined)
		if !a.ShouldCapture(r.Biased()) {
			t.Fatalf("biased record %d not captured", i)
		}
		a.Observe(r)
	}
	declined := a.TailFiltered(100, "", "", OutcomeDeclined)
	if len(declined) != 5 {
		t.Errorf("declined records = %d, want all 5 (bias bypasses sampling)", len(declined))
	}
	// Breakdown counts every offered record, not just captured ones.
	b := a.Breakdown()
	if got := b[PathBatchGate][OutcomeClassified]; got != 40 {
		t.Errorf("breakdown[batch-gate][classified] = %d, want 40", got)
	}
	if got := b[PathClassifier][OutcomeDeclined]; got != 5 {
		t.Errorf("breakdown[classifier][declined] = %d, want 5", got)
	}
	if a.Offered() != 45 {
		t.Errorf("Offered = %d, want 45", a.Offered())
	}
}

// TestCountSampledOutAllocatesNothing: the sampled-out path is what most
// unbiased decisions take, and ShouldCapture promises it costs an atomic
// increment, not an allocation — once the (path, outcome) total exists.
func TestCountSampledOutAllocatesNothing(t *testing.T) {
	a := NewAuditLog(AuditConfig{Capacity: 16, SampleEvery: 64})
	path, outcome := PathBatchGate, OutcomeClassified
	a.CountSampledOut(path, outcome)
	if n := testing.AllocsPerRun(200, func() { a.CountSampledOut(path, outcome) }); n != 0 {
		t.Fatalf("CountSampledOut allocates %.1f times per call, want 0", n)
	}
	if got := a.Breakdown()[path][outcome]; got != 202 {
		t.Fatalf("breakdown = %d, want 202", got)
	}
}

// TestAuditLogDegradedBias: a classified outcome on the degraded path is
// still biased (always captured).
func TestAuditLogDegradedBias(t *testing.T) {
	r := rec("x", PathDegraded, OutcomeClassified)
	if !r.Biased() {
		t.Error("degraded-path record must be biased")
	}
	if !rec("y", PathServe, OutcomeShed).Biased() {
		t.Error("shed record must be biased")
	}
	if rec("z", PathPerItem, OutcomeClassified).Biased() {
		t.Error("plain classification must not be biased")
	}
}

// TestAuditLogFilters: TailFiltered matches rule IDs against fired and
// vetoed lists, and path/outcome exactly.
func TestAuditLogFilters(t *testing.T) {
	a := NewAuditLog(AuditConfig{Capacity: 16, SampleEvery: 1})
	a.Observe(rec("a", PathPerItem, OutcomeClassified, "r1", "r2"))
	a.Observe(rec("b", PathBatchGate, OutcomeClassified, "r2"))
	v := rec("c", PathClassifier, OutcomeDeclined)
	v.Vetoed = []string{"r9"}
	a.Observe(v)

	if got := a.TailFiltered(10, "r2", "", ""); len(got) != 2 {
		t.Errorf("rule r2 filter matched %d, want 2", len(got))
	}
	if got := a.TailFiltered(10, "r9", "", ""); len(got) != 1 || got[0].ItemID != "c" {
		t.Errorf("veto rule filter = %+v, want item c", got)
	}
	if got := a.TailFiltered(10, "", PathBatchGate, ""); len(got) != 1 || got[0].ItemID != "b" {
		t.Errorf("path filter = %+v, want item b", got)
	}
	if got := a.TailFiltered(10, "r1", PathBatchGate, ""); len(got) != 0 {
		t.Errorf("conjunctive filter matched %d, want 0", len(got))
	}
}

// TestAuditLogDisabled: nil and negative-capacity logs are inert everywhere.
func TestAuditLogDisabled(t *testing.T) {
	for name, a := range map[string]*AuditLog{
		"nil":      nil,
		"disabled": NewAuditLog(AuditConfig{Capacity: -1}),
	} {
		if a.Enabled() {
			t.Errorf("%s: Enabled = true", name)
		}
		if a.ShouldCapture(true) {
			t.Errorf("%s: ShouldCapture = true", name)
		}
		a.Observe(rec("x", PathPerItem, OutcomeClassified)) // must not panic
		a.Count(PathPerItem, OutcomeClassified)
		a.CountSampledOut(PathPerItem, OutcomeClassified)
		if a.Tail(5) != nil || a.Captured() != 0 || a.Breakdown() != nil {
			t.Errorf("%s: disabled log leaked state", name)
		}
	}
}

// TestAuditLogConcurrent hammers the ring from many writers and readers at
// once; run under -race this is the lock-free-capture regression test.
func TestAuditLogConcurrent(t *testing.T) {
	a := NewAuditLog(AuditConfig{Capacity: 64, SampleEvery: 2})
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				outcome := OutcomeClassified
				if i%3 == 0 {
					outcome = OutcomeDeclined
				}
				r := rec(fmt.Sprintf("w%d-%d", w, i), PathPerItem, outcome)
				if a.ShouldCapture(r.Biased()) {
					a.Observe(r)
				} else {
					a.CountSampledOut(r.Path, r.Outcome)
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Tail(32)
					a.Breakdown()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if got := a.Offered(); got != writers*perWriter {
		t.Errorf("Offered = %d, want %d", got, writers*perWriter)
	}
	tail := a.Tail(64)
	if len(tail) == 0 {
		t.Fatal("empty tail after concurrent writes")
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].Seq <= tail[i-1].Seq {
			t.Fatalf("tail out of order at %d: %d then %d", i, tail[i-1].Seq, tail[i].Seq)
		}
	}
}

// TestFormatBreakdown renders sorted aligned lines.
func TestFormatBreakdown(t *testing.T) {
	out := FormatBreakdown(map[string]map[string]uint64{
		PathPerItem:   {OutcomeClassified: 7},
		PathBatchGate: {OutcomeDeclined: 2},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "batch-gate/declined") || !strings.Contains(lines[0], "2") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "per-item/classified") || !strings.Contains(lines[1], "7") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestRequestIDPropagation: EnsureRequestID generates once and round-trips
// through the context.
func TestRequestIDPropagation(t *testing.T) {
	ctx := context.Background()
	if id := RequestID(ctx); id != "" {
		t.Fatalf("empty context carries ID %q", id)
	}
	ctx, id := EnsureRequestID(ctx, "req")
	if id == "" || RequestID(ctx) != id {
		t.Fatalf("EnsureRequestID: id=%q, ctx id=%q", id, RequestID(ctx))
	}
	if !strings.HasPrefix(id, "req-") {
		t.Errorf("generated ID %q missing prefix", id)
	}
	// A second Ensure must keep the existing ID.
	ctx2, id2 := EnsureRequestID(ctx, "other")
	if id2 != id || RequestID(ctx2) != id {
		t.Errorf("EnsureRequestID regenerated: %q -> %q", id, id2)
	}
	// Explicit IDs win.
	ctx3 := WithRequestID(context.Background(), "custom-9")
	if _, got := EnsureRequestID(ctx3, "req"); got != "custom-9" {
		t.Errorf("explicit ID not preserved: %q", got)
	}
	a, b := NewRequestID("x"), NewRequestID("x")
	if a == b {
		t.Errorf("NewRequestID not unique: %q == %q", a, b)
	}
}
