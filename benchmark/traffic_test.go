package main

import (
	"testing"

	"repro/internal/catalog"
)

func TestSeedsChangeTrafficNotWorld(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	digest := w.Digest()
	hotOrder := append([]*catalog.Item(nil), w.Hot...)
	a := NewTraffic(w, 1, 16, 0.9)
	b := NewTraffic(w, 2, 16, 0.9)
	a2 := NewTraffic(w, 1, 16, 0.9)

	if a.start == b.start || a.stride == b.stride {
		t.Errorf("seeds 1 and 2 share the walk: start %d/%d stride %d/%d", a.start, b.start, a.stride, b.stride)
	}
	if a.RingOffset == b.RingOffset {
		t.Errorf("seeds 1 and 2 share ring offset %d", a.RingOffset)
	}
	sameDraws, sameItems := 0, 0
	for i := 0; i < 4096; i++ {
		if a.draws[i] == b.draws[i] {
			sameDraws++
		}
		if a.Item(i) != a2.Item(i) {
			t.Fatalf("seed 1 gave two different streams at item %d", i)
		}
		if a.Item(i) == b.Item(i) {
			sameItems++
		}
	}
	if sameDraws > 2048 || sameItems > 2048 {
		t.Errorf("seeds 1 and 2 agree on %d of 4096 draws and %d items: the Zipf sequence did not change", sameDraws, sameItems)
	}
	if w.Digest() != digest {
		t.Error("generating traffic changed the world")
	}
	for i, it := range w.Hot {
		if it != hotOrder[i] {
			t.Fatalf("hot pool rank %d moved", i)
		}
	}
	// Unique streams differ too.
	ua, ub := NewTraffic(w, 1, 64, 0), NewTraffic(w, 2, 64, 0)
	same := 0
	for i := 0; i < 4096; i++ {
		if ua.Item(i) == ub.Item(i) {
			same++
		}
	}
	if same > 64 {
		t.Errorf("unique walks of seeds 1 and 2 agree on %d of 4096 items", same)
	}
}

// No unique item comes back within 4x the tier's total cache capacity, so
// the cache can never hit on the unique stream, on any seed.
func TestUniqueWalkDoesNotRevisit(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	horizon := 4 * p * cachePerShard
	if horizon > len(w.Pool) {
		t.Fatalf("pool of %d is smaller than 4x the cache capacity (%d)", len(w.Pool), horizon)
	}
	hot := map[*catalog.Item]bool{}
	for _, it := range w.Hot {
		hot[it] = true
	}
	for _, seed := range []uint64{1, 2, 3, 1 << 40} {
		for _, share := range []float64{0, 0.9} {
			tr := NewTraffic(w, seed, 16, share)
			lastAt := map[*catalog.Item]int{}
			uniq := 0
			for i := 0; uniq < 2*horizon; i++ {
				it := tr.Item(i)
				if hot[it] {
					continue
				}
				if at, ok := lastAt[it]; ok && uniq-at < horizon {
					t.Fatalf("seed %d share %.1f: unique item %s came back after %d unique items", seed, share, it.ID, uniq-at)
				}
				lastAt[it] = uniq
				uniq++
			}
		}
	}
}

func TestRequestsTileTheStream(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTraffic(w, 7, 16, 0.9)
	var buf []*catalog.Item
	for k := 0; k < 100; k++ {
		buf = tr.Request(k, buf)
		if len(buf) != 16 {
			t.Fatalf("request %d has %d items", k, len(buf))
		}
		for j, it := range buf {
			if it != tr.Item(k*16+j) {
				t.Fatalf("request %d item %d is not stream item %d", k, j, k*16+j)
			}
		}
	}
	// The stream carries on past the generated draws.
	if tr.Item(drawLen+5) == nil {
		t.Fatal("stream ended")
	}
}
