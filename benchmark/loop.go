package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// completion is one finished batch or request, timed from the loop's origin.
type completion struct {
	start, done time.Duration
	minVersion  uint64
	items       int
	failed      int
}

// mutationRec is one analyst mutation: when the Rulebase call returned and
// the version it produced.
type mutationRec struct {
	start    time.Duration
	ret      time.Duration
	version  uint64
	inWindow bool
}

// loopSpec is one closed-loop run: warm-up, the timed window, then up to
// drain of further traffic so the last mutations can become visible.
type loopSpec struct {
	clients             int
	warm, window, drain time.Duration
	mutPerSec           int
	// firstRequest is the index of the first request taken from the traffic
	// stream (the quality pass of serve_repeat has already used some).
	firstRequest int
}

// loopResult is everything a run recorded. Times are offsets from t0, the
// start of the timed window (warm-up completions have negative starts).
type loopResult struct {
	origin time.Time     // t0
	wall   time.Duration // warm-up + window + drain, as run
	comps  []completion  // sorted by done
	muts   []mutationRec
	stale  int // parts served below a version that shard had already reported to the same caller
	window time.Duration
}

// mutator walks the ring: Disable/Enable alternately, every 4th operation an
// UpdateConfidence. One goroutine owns it, so Version() after a call is the
// version that call produced.
type mutator struct {
	rb       *core.Rulebase
	ids      []string
	offset   int
	disabled []bool
}

func newMutator(rb *core.Rulebase, ringIDs []string, ringOffset int) *mutator {
	return &mutator{rb: rb, ids: ringIDs, offset: ringOffset, disabled: make([]bool, len(ringIDs))}
}

func (m *mutator) step(k int) (uint64, error) {
	pos := (m.offset + k) % len(m.ids)
	id := m.ids[pos]
	var err error
	switch {
	case k%4 == 3:
		err = m.rb.UpdateConfidence(id, 0.5+float64(k%50)/100, "analyst")
	case m.disabled[pos]:
		err = m.rb.Enable(id, "analyst", "bench ring")
		m.disabled[pos] = false
	default:
		err = m.rb.Disable(id, "analyst", "bench ring")
		m.disabled[pos] = true
	}
	return m.rb.Version(), err
}

// runLoop drives the closed loop.
func runLoop(call callFunc, s *sut, tr *Traffic, spec loopSpec) (*loopResult, error) {
	origin := time.Now().Add(spec.warm) // t0
	since := func() time.Duration { return time.Since(origin) }

	var next atomic.Int64
	next.Store(int64(spec.firstRequest))
	var stop atomic.Bool
	var seen atomic.Uint64 // highest minVersion any completion reported
	var stale atomic.Int64
	perClient := make([][]completion, spec.clients)

	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]*catalog.Item, 0, tr.reqItems)
			lastSeen := make([]uint64, s.p) // per shard; the batch path uses slot 0
			for !stop.Load() {
				items := tr.Request(int(next.Add(1)-1), buf)
				start := since()
				rep := call(items)
				cp := completion{start: start, done: since(), minVersion: rep.minVersion,
					items: len(items), failed: rep.failed}
				for sh, v := range rep.shardVersion {
					if v == 0 {
						continue
					}
					if v < lastSeen[sh] {
						stale.Add(1)
					}
					lastSeen[sh] = v
				}
				for {
					cur := seen.Load()
					if cp.minVersion <= cur || seen.CompareAndSwap(cur, cp.minVersion) {
						break
					}
				}
				perClient[c] = append(perClient[c], cp)
			}
		}(c)
	}

	// This goroutine is the analyst: mutation k is due at -warm + k*interval, so exactly
	// mutPerSec*window of them fall inside the window however long each takes.
	var muts []mutationRec
	var mutErr error
	m := newMutator(s.pipe.Rules, s.ringIDs, tr.RingOffset)
	interval := time.Second / time.Duration(spec.mutPerSec)
	for k := 0; ; k++ {
		due := -spec.warm + time.Duration(k)*interval
		if due >= spec.window {
			break
		}
		if d := due - since(); d > 0 {
			time.Sleep(d)
		}
		start := since()
		v, err := m.step(k)
		if err != nil {
			mutErr = fmt.Errorf("mutation %d: %w", k, err)
			break
		}
		muts = append(muts, mutationRec{start: start, ret: since(), version: v, inWindow: due >= 0})
	}

	// Drain: keep the loop going until the last mutation has been served.
	deadline := spec.window + spec.drain
	for len(muts) > 0 && seen.Load() < muts[len(muts)-1].version && since() < deadline {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if mutErr != nil {
		return nil, mutErr
	}

	res := &loopResult{origin: origin, wall: time.Since(origin) + spec.warm, muts: muts, stale: int(stale.Load()), window: spec.window}
	for _, cs := range perClient {
		res.comps = append(res.comps, cs...)
	}
	sort.Slice(res.comps, func(i, j int) bool { return res.comps[i].done < res.comps[j].done })
	return res, nil
}

// windowStats is what the window yields for the end-to-end metrics.
type windowStats struct {
	requests    int       // requests started and completed inside the window
	items       int       // their items
	failedItems int       // items without a decision, whole run
	itemsPerSec float64   // items / time to the last completion
	latencyMs   []float64 // sorted
	visibleMs   []float64 // sorted; one per window mutation that was seen
	mutations   int       // window mutations
	unseen      int       // window mutations no later completion was wholly at or above
}

func (r *loopResult) stats() windowStats {
	var st windowStats
	var last time.Duration
	for _, c := range r.comps {
		st.failedItems += c.failed
		if c.start < 0 || c.done > r.window {
			continue
		}
		st.requests++
		st.items += c.items - c.failed
		st.latencyMs = append(st.latencyMs, ms(c.done-c.start))
		last = c.done
	}
	if last > 0 {
		st.itemsPerSec = float64(st.items) / last.Seconds()
	}
	sort.Float64s(st.latencyMs)

	// Versions and completion times both rise, so one forward scan pairs each
	// mutation with the first completion wholly at or above its version.
	i := 0
	for _, m := range r.muts {
		for i < len(r.comps) && r.comps[i].minVersion < m.version {
			i++
		}
		if !m.inWindow {
			continue
		}
		st.mutations++
		if i == len(r.comps) {
			st.unseen++
			continue
		}
		d := r.comps[i].done - m.ret
		if d < 0 {
			d = 0
		}
		st.visibleMs = append(st.visibleMs, ms(d))
	}
	sort.Float64s(st.visibleMs)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted xs (nearest rank), 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of xs, sorted or not.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
