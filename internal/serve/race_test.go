package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/randx"
)

// raceVocab is the shared token universe for the writers-vs-readers stress
// test: small enough that rules and items collide constantly.
var raceVocab = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "mike", "november",
	"oscar", "papa", "quebec", "romeo", "sierra", "tango",
}

// ruleDefs tracks, outside the rulebase, what each added rule means — so the
// test can rebuild any historical rule set from an audit replay.
type ruleDefs struct {
	mu sync.Mutex
	m  map[string]struct{ src, target string }
}

func (d *ruleDefs) record(id, src, target string) {
	d.mu.Lock()
	d.m[id] = struct{ src, target string }{src, target}
	d.mu.Unlock()
}

func (d *ruleDefs) ids() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.m))
	for id := range d.m {
		out = append(out, id)
	}
	return out
}

// servedBatch is one reader-observed result: the items, the final types the
// server returned for them, and the snapshot they were computed under.
type servedBatch struct {
	items []*catalog.Item
	outs  [][]string
	snap  *Snapshot
}

// activeSetAt replays the audit log up to (and including) version v and
// returns the active rule IDs at that exact rulebase state.
func activeSetAt(audit []core.AuditEntry, v uint64) map[string]bool {
	active := map[string]bool{}
	for _, e := range audit {
		if e.Version > v {
			break
		}
		switch e.Action {
		case "add", "enable":
			active[e.RuleID] = true
		case "disable", "retire":
			delete(active, e.RuleID)
		}
	}
	return active
}

// TestConcurrentMutationAndServing is the torn-snapshot stress test: N
// writer goroutines mutate the rulebase (Add / Disable / Enable /
// UpdateConfidence) while M readers classify batches through the Server.
// Afterwards, every observed snapshot is checked against an audit-log
// replay: its ActiveIDs must be exactly the active set at its version (a
// torn snapshot — one mixing two versions — cannot pass), and the verdicts
// of a sample batch must be byte-identical to a fresh executor built from
// that replayed rule set. Run under -race in scripts/verify.sh.
func TestConcurrentMutationAndServing(t *testing.T) {
	const (
		writers       = 4
		readers       = 4
		writerOps     = 120
		readerBatches = 50
		batchSize     = 8
	)

	rb := core.NewRulebase()
	defs := &ruleDefs{m: map[string]struct{ src, target string }{}}
	for i := 0; i < 40; i++ {
		src := raceVocab[i%len(raceVocab)]
		target := fmt.Sprintf("type-%d", i%8)
		r, err := core.NewWhitelist(src, target)
		if err != nil {
			t.Fatal(err)
		}
		id, err := rb.Add(r, "seed")
		if err != nil {
			t.Fatal(err)
		}
		defs.record(id, src, target)
	}

	reg := obs.NewRegistry()
	eng := NewEngine(rb, EngineOptions{Obs: reg})
	defer eng.Close()
	srv := NewServer(eng, func(_ context.Context, snap *Snapshot, it *catalog.Item) []string {
		return snap.Apply(it).FinalTypes()
	}, ServerOptions{Workers: 4, QueueDepth: 256, Obs: reg})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := randx.New(uint64(1000 + w))
			for op := 0; op < writerOps; op++ {
				ids := defs.ids()
				id := ids[rng.Intn(len(ids))]
				switch rng.Intn(4) {
				case 0:
					src := raceVocab[rng.Intn(len(raceVocab))]
					target := fmt.Sprintf("type-%d", rng.Intn(8))
					if r, err := core.NewWhitelist(src, target); err == nil {
						if nid, err := rb.Add(r, fmt.Sprintf("w%d", w)); err == nil {
							defs.record(nid, src, target)
						}
					}
				case 1:
					_ = rb.Disable(id, fmt.Sprintf("w%d", w), "stress")
				case 2:
					_ = rb.Enable(id, fmt.Sprintf("w%d", w), "stress")
				case 3:
					_ = rb.UpdateConfidence(id, float64(rng.Intn(100))/100, fmt.Sprintf("w%d", w))
				}
				if op%10 == 9 {
					// Yield so mutations spread across the serving window
					// instead of completing before readers warm up.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(w)
	}

	results := make([][]servedBatch, readers)
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := randx.New(uint64(2000 + rd))
			for b := 0; b < readerBatches; b++ {
				items := make([]*catalog.Item, batchSize)
				for i := range items {
					title := raceVocab[rng.Intn(len(raceVocab))] + " " +
						raceVocab[rng.Intn(len(raceVocab))]
					items[i] = &catalog.Item{
						ID:    fmt.Sprintf("r%d-b%d-i%d", rd, b, i),
						Attrs: map[string]string{"Title": title},
					}
				}
				ticket, err := srv.Submit(items)
				if err != nil {
					// Queue full under stress is legitimate backpressure.
					continue
				}
				outs, snap, err := ticket.Wait()
				if err != nil {
					t.Errorf("reader %d batch %d: %v", rd, b, err)
					return
				}
				results[rd] = append(results[rd], servedBatch{items, outs, snap})
				if b%10 == 9 {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(rd)
	}

	wg.Wait()
	srv.Drain()
	eng.Close()

	audit := rb.Audit()
	checkedVersions := map[uint64]bool{}
	total := 0
	for _, rdBatches := range results {
		for _, sb := range rdBatches {
			total++
			v := sb.snap.Version()
			// 1. Traceability: the snapshot's active set must be exactly the
			// replayed rulebase state at its version — a torn snapshot fails.
			if !checkedVersions[v] {
				checkedVersions[v] = true
				want := activeSetAt(audit, v)
				got := sb.snap.ActiveIDs()
				if len(got) != len(want) {
					t.Fatalf("torn snapshot at version %d: %d active IDs, audit replay says %d",
						v, len(got), len(want))
				}
				for _, id := range got {
					if !want[id] {
						t.Fatalf("torn snapshot at version %d: rule %s active in snapshot but not at that version", v, id)
					}
				}
				// 2. Verdict equivalence: rebuild the replayed rule set and
				// re-classify this batch — results must be identical.
				defs.mu.Lock()
				var fresh []*core.Rule
				for id := range want {
					def, ok := defs.m[id]
					if !ok {
						defs.mu.Unlock()
						t.Fatalf("audit references unknown rule %s", id)
					}
					r, err := core.NewWhitelist(def.src, def.target)
					if err != nil {
						defs.mu.Unlock()
						t.Fatal(err)
					}
					fresh = append(fresh, r)
				}
				defs.mu.Unlock()
				ex := core.NewIndexedExecutor(fresh)
				for i, it := range sb.items {
					want := ex.Apply(it).FinalTypes()
					got := sb.outs[i]
					if len(want) != len(got) {
						t.Fatalf("version %d item %s: served %v, replay says %v", v, it.ID, got, want)
					}
					for j := range want {
						if want[j] != got[j] {
							t.Fatalf("version %d item %s: served %v, replay says %v", v, it.ID, got, want)
						}
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no batches were served")
	}
	if len(checkedVersions) < 2 {
		t.Fatalf("stress test observed only %d distinct snapshot versions; mutations did not interleave with serving", len(checkedVersions))
	}
	t.Logf("served %d batches across %d distinct snapshot versions (final rulebase version %d)",
		total, len(checkedVersions), rb.Version())
}
