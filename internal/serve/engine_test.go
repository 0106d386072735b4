package serve

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestEngineAsyncSwap: after Start, a mutation must cause the published
// snapshot to catch up to the new rulebase version without any reader
// touching the rulebase lock.
func TestEngineAsyncSwap(t *testing.T) {
	eng, reg := testEngine(t)
	eng.Start()
	if v := eng.Current().Version(); v != eng.Rulebase().Version() {
		t.Fatalf("initial snapshot at version %d, rulebase at %d", v, eng.Rulebase().Version())
	}

	r, err := core.NewWhitelist("sprocket", "gizmo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rulebase().Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	want := eng.Rulebase().Version()

	deadline := time.Now().Add(2 * time.Second)
	for eng.Current().Version() != want {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot stuck at version %d, want %d", eng.Current().Version(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if n := reg.Counter(MetricSnapshotSwaps).Value(); n < 2 {
		t.Fatalf("swap counter = %d, want >= 2", n)
	}
	eng.Close()
	eng.Close() // idempotent
}

// TestEngineStartCatchesUp: a change committed between NewEngine and Start
// reaches no change-feed subscriber, so nothing would wake the loop for it;
// Start itself must catch the published snapshot up before it returns.
func TestEngineStartCatchesUp(t *testing.T) {
	eng, _ := testEngine(t)
	addRule(t, eng.Rulebase(), "sprocket")
	eng.Start()
	if got, want := eng.Current().Version(), eng.Rulebase().Version(); got != want {
		t.Fatalf("started at %d, rulebase at %d", got, want)
	}
}

// TestEngineCoalescesWithoutTimer: the loop builds as soon as a change
// commits, and any number of changes that commit while a build is in flight
// cost exactly one more build: no timer, no lost wake-up.
func TestEngineCoalescesWithoutTimer(t *testing.T) {
	eng, reg := testEngine(t)
	rb := eng.Rulebase()
	id := rb.Active()[0].ID
	eng.Start()
	swaps := reg.Counter(MetricSnapshotSwaps)
	before := swaps.Value()

	// The first build stalls after it has read the rulebase, until released.
	entered, gate := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	eng.SetRebuildFault(func() (time.Duration, error) {
		if builds.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return 0, nil
	})
	if err := rb.UpdateConfidence(id, 0.5, "test"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("a committed change did not start a build")
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := rb.UpdateConfidence(id, 0.6+float64(i)/100, "test"); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	waitForState(t, eng, "the changes committed during the stalled build")
	if got := swaps.Value() - before; got != 2 {
		t.Fatalf("%d changes during a build led to %d publishes in all, want 2", n, got)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("%d builds, want 2", got)
	}
}

// TestEngineHolds: the rebuild loop runs while any hold is live. Releasing
// one of two holds (twice) leaves it publishing; releasing the last stops
// it; the next Start catches up; and Close drops every hold, so a release
// taken before Close cannot stop a loop started after it.
func TestEngineHolds(t *testing.T) {
	eng, _ := testEngine(t)
	rb := eng.Rulebase()
	a, b := eng.Start(), eng.Start()
	a()
	a()
	addRule(t, rb, "one")
	waitForState(t, eng, "a change with one hold left")

	b()
	addRule(t, rb, "two")
	time.Sleep(20 * time.Millisecond)
	if eng.Current().Version() == rb.Version() {
		t.Fatal("the engine published a change with no hold")
	}
	stale := eng.Start()
	if got, want := eng.Current().Version(), rb.Version(); got != want {
		t.Fatalf("restarted at %d, rulebase at %d", got, want)
	}

	eng.Close()
	release := eng.Start()
	defer release()
	stale()
	addRule(t, rb, "three")
	waitForState(t, eng, "a change after a release dropped by Close")
}

// addRule adds one whitelist rule: one committed change.
func addRule(t *testing.T, rb *core.Rulebase, pattern string) {
	t.Helper()
	r, err := core.NewWhitelist(pattern, "gizmo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Add(r, "test"); err != nil {
		t.Fatal(err)
	}
}

// waitForState waits up to five seconds for the engine to publish the
// rulebase's current state.
func waitForState(t *testing.T, eng *Engine, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); eng.Current().Version() != eng.Rulebase().Version(); {
		if time.Now().After(deadline) {
			t.Fatalf("%s: engine at %d, rulebase at %d", what, eng.Current().Version(), eng.Rulebase().Version())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAcquireCachesByVersion: with an unchanged rulebase, Acquire returns the
// same snapshot pointer (no rebuild); after a mutation it returns a new one
// at the new version. This is the fix for the old per-batch refreshExecutors
// path, which rebuilt the filter table on every call.
func TestAcquireCachesByVersion(t *testing.T) {
	eng, _ := testEngine(t)
	s1 := eng.Acquire()
	s2 := eng.Acquire()
	if s1 != s2 {
		t.Fatal("Acquire rebuilt a snapshot for an unchanged rulebase")
	}

	r, err := core.NewWhitelist("doohickey", "gizmo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rulebase().Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	s3 := eng.Acquire()
	if s3 == s1 {
		t.Fatal("Acquire returned a stale snapshot after a mutation")
	}
	if s3.Version() != eng.Rulebase().Version() {
		t.Fatalf("Acquire at version %d, rulebase at %d", s3.Version(), eng.Rulebase().Version())
	}
	if s4 := eng.Acquire(); s4 != s3 {
		t.Fatal("Acquire rebuilt again for an unchanged rulebase")
	}
}

// TestEngineRebuildFaultKeepsStaleSnapshot: an injected rebuild failure must
// not tear or nil the published snapshot — the engine keeps serving the last
// good one, flags itself degraded and counts the error; clearing the fault
// recovers on the next rebuild.
func TestEngineRebuildFaultKeepsStaleSnapshot(t *testing.T) {
	eng, reg := testEngine(t)
	before := eng.Acquire()

	fail := true
	injected := errors.New("injected rebuild failure")
	eng.SetRebuildFault(func() (time.Duration, error) {
		if fail {
			return 0, injected
		}
		return 0, nil
	})

	r, err := core.NewWhitelist("sprocket", "gizmo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Rulebase().Add(r, "test"); err != nil {
		t.Fatal(err)
	}
	got := eng.Acquire()
	if got != before {
		t.Fatal("failed rebuild should return the stale-but-valid snapshot")
	}
	if !eng.Degraded() {
		t.Fatal("engine not degraded after a failed rebuild")
	}
	if n := reg.Counter(MetricBuildErrors).Value(); n != 1 {
		t.Fatalf("build-error counter = %d, want 1", n)
	}
	if v := reg.Gauge(MetricDegraded).Value(); v != 1 {
		t.Fatalf("degraded gauge = %v, want 1", v)
	}

	fail = false
	got = eng.Acquire()
	if got == before || got.Version() != eng.Rulebase().Version() {
		t.Fatalf("engine did not recover: version %d, rulebase %d", got.Version(), eng.Rulebase().Version())
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after a successful rebuild")
	}
	if v := reg.Gauge(MetricDegraded).Value(); v != 0 {
		t.Fatalf("degraded gauge = %v, want 0", v)
	}
}

// TestSnapshotIsolation: an in-flight batch holding an old snapshot keeps
// classifying under the rules frozen at acquisition, even after those rules
// are disabled in the rulebase — while new acquisitions see the change.
func TestSnapshotIsolation(t *testing.T) {
	rb := core.NewRulebase()
	r, err := core.NewWhitelist("widget", "gadget")
	if err != nil {
		t.Fatal(err)
	}
	id, err := rb.Add(r, "test")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(rb, EngineOptions{Obs: obs.NewRegistry()})
	defer eng.Close()

	it := &catalog.Item{ID: "x", Attrs: map[string]string{"Title": "acme widget"}}
	old := eng.Acquire()
	if got := old.Apply(it).FinalTypes(); len(got) != 1 || got[0] != "gadget" {
		t.Fatalf("before disable: %v", got)
	}

	if err := rb.Disable(id, "test", "isolation test"); err != nil {
		t.Fatal(err)
	}

	// The old snapshot is frozen: the disabled rule still fires there.
	if got := old.Apply(it).FinalTypes(); len(got) != 1 || got[0] != "gadget" {
		t.Fatalf("old snapshot no longer isolated: %v", got)
	}
	// A fresh acquisition sees the disable.
	if got := eng.Acquire().Apply(it).FinalTypes(); len(got) != 0 {
		t.Fatalf("fresh snapshot still fires disabled rule: %v", got)
	}
}
