package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestChangesetVisibleWhole: a changeset is one version, so no snapshot a
// reader can get holds part of one. Readers call Acquire and Current while a
// writer alternates DisableWhere and EnableAll over one type's rules; in
// every snapshot either all of those rules are active or none are. Then,
// with no reader touching the engine, each changeset costs the rebuild loop
// at most one snapshot swap.
func TestChangesetVisibleWhole(t *testing.T) {
	const typed = 12
	rb := core.NewRulebase()
	ringIDs := map[string]bool{}
	for i := 0; i < typed+4; i++ {
		target := "rings"
		if i >= typed {
			target = "mugs"
		}
		r, err := core.NewWhitelist(fmt.Sprintf("w%d", i), target)
		if err != nil {
			t.Fatal(err)
		}
		id, err := rb.Add(r, "test")
		if err != nil {
			t.Fatal(err)
		}
		if target == "rings" {
			ringIDs[id] = true
		}
	}
	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	defer eng.Close()
	release := eng.Start()
	defer release()

	rings := func(r *core.Rule) bool { return r.TargetType == "rings" }
	check := func(snap *Snapshot) error {
		n := 0
		for _, id := range snap.ActiveIDs() {
			if ringIDs[id] {
				n++
			}
		}
		if n != 0 && n != typed {
			return fmt.Errorf("snapshot v%d holds %d of the %d rings rules", snap.Version(), n, typed)
		}
		return nil
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(acquire bool) {
			defer wg.Done()
			for !stop.Load() {
				snap := eng.Current()
				if acquire {
					snap = eng.Acquire()
				}
				if err := check(snap); err != nil {
					errs <- err
					return
				}
			}
		}(i%2 == 0)
	}
	for round := 0; round < 100; round++ {
		ids := rb.DisableWhere(rings, "ana", "scale down")
		if len(ids) != typed {
			t.Fatalf("round %d: disabled %d rules, want %d", round, len(ids), typed)
		}
		rb.EnableAll(ids, "ana", "restore")
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	swaps := reg.Counter(MetricSnapshotSwaps)
	for round := 0; round < 20; round++ {
		waitForState(t, eng, "before the changeset")
		before := swaps.Value()
		ids := rb.DisableWhere(rings, "ana", "scale down")
		waitForState(t, eng, "after DisableWhere")
		time.Sleep(2 * time.Millisecond) // let a pending kick build, if any
		if n := swaps.Value() - before; n > 1 {
			t.Fatalf("round %d: one changeset cost %d snapshot swaps", round, n)
		}
		if err := check(eng.Current()); err != nil {
			t.Fatal(err)
		}
		rb.EnableAll(ids, "ana", "restore")
	}
}
