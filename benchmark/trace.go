package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/chimera"
	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (tracing inside the program is a later issue). Times are nanoseconds
// from the recorder's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Req    int    `json:"req"` // item, mutation or request index; -1 when the span is not about one
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing: the untraced replay passes nil.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id (-1 on a nil recorder).
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{id, parent, name, req, int64(start.Sub(r.origin)), int64(end.Sub(r.origin))})
	return id
}

// open reserves a span whose end is set by close; children name it as parent.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, -1, now, now)
}

func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(time.Since(r.origin))
	r.mu.Unlock()
}

// timeCalls runs fn(i) for i < n under one stage span named name, one child
// span per call, and returns each call's duration in seconds. It stops at the
// first error. Calls are timed the same way on a nil recorder.
func (r *recorder) timeCalls(parent int, name string, n int, fn func(i int) error) ([]float64, error) {
	stage := r.open(name, parent)
	defer r.close(stage)
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		err := fn(i)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = end.Sub(start).Seconds()
		r.add(name, stage, i, start, end)
	}
	return ds, nil
}

func (r *recorder) write(path string, wl *workload, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{wl.Name, seed, r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// lab is what the ladder replay calls into: two single-worker pipelines over
// rulebases equal to the system's (same prototypes, same order, so the same
// rule IDs), sharing the system's ensemble. One audits at default sampling,
// the other not at all; their difference is the audit layer's cost.
type lab struct {
	audit, noAudit *chimera.Pipeline
}

func newLab(s *sut, w *World) (*lab, error) {
	mk := func(audit *obs.AuditLog) (*chimera.Pipeline, error) {
		p := chimera.New(chimera.Config{Seed: pipelineSeed, Workers: 1, Obs: obs.NewRegistry(), Audit: audit})
		if err := p.Rules.AddAll(w.CloneRules(), "setup"); err != nil {
			return nil, err
		}
		p.Ensemble = s.pipe.Ensemble
		p.Snapshots().Acquire()
		return p, nil
	}
	a, err := mk(nil)
	if err != nil {
		return nil, err
	}
	n, err := mk(obs.NewAuditLog(obs.AuditConfig{Capacity: -1}))
	if err != nil {
		return nil, err
	}
	return &lab{audit: a, noAudit: n}, nil
}

// replayTimes are the hot-path totals of one ladder replay, in seconds over
// all ladder items.
type replayTimes struct {
	prep, gate, match, indexed              float64
	features, nb, knn, perceptron, ensemble float64
	classify, processBatch, noAuditBatch    float64
	declineRate                             float64
	candidates, applies, matched            int64
	wall                                    float64
}

// replay calls each hot-path layer's exported function directly, in pipeline
// order, single-threaded, on items. Every call is timed the same way with or
// without a recorder; with one, each call also leaves a span.
func (l *lab) replay(rec *recorder, items []*catalog.Item, repeats int) replayTimes {
	var t replayTimes
	begin := time.Now()
	root := rec.open("ladder.replay", -1)
	// each calls fn once per item and returns the sum of the calls' durations.
	each := func(name string, its []*catalog.Item, fn func(*catalog.Item)) float64 {
		ds, _ := rec.timeCalls(root, name, len(its), func(i int) error { fn(its[i]); return nil })
		var sum float64
		for _, d := range ds {
			sum += d
		}
		return sum
	}
	// batch makes one whole-batch call repeats times and returns the median.
	batch := func(name string, fn func()) float64 {
		ds, _ := rec.timeCalls(root, name, repeats, func(int) error { fn(); return nil })
		return median(ds)
	}

	cold := make([]*catalog.Item, len(items))
	for i, it := range items {
		cold[i] = it.Relabeled(it.TrueType) // same content, token and fingerprint caches empty
	}
	t.prep = each("catalog.prep", cold, func(it *catalog.Item) { it.TitleTokens(); it.Fingerprint() })

	snap := l.audit.Snapshots().Acquire()
	reg := l.audit.Obs
	var gvs []*core.Verdict
	t.gate = batch("core.batch_gate", func() { gvs = snap.GateApplyBatch(items, 1) })
	var pending []*catalog.Item
	for i, gv := range gvs {
		if len(gv.FinalTypes()) == 0 {
			pending = append(pending, items[i])
		}
	}
	counters := func() (c, a, m int64) {
		return reg.Counter(core.MetricExecCandidates, "exec", "rules").Value(),
			reg.Counter(core.MetricExecApplies, "exec", "rules").Value(),
			reg.Counter(core.MetricExecMatched, "exec", "rules").Value()
	}
	c0, a0, m0 := counters()
	t.match = batch("core.batch_match", func() { snap.ApplyBatch(pending, 1) })
	c1, a1, m1 := counters()
	t.candidates, t.applies, t.matched = c1-c0, a1-a0, m1-m0

	t.indexed = each("core.indexed_apply", pending, func(it *catalog.Item) { snap.Apply(it) })
	ens := l.audit.Ensemble
	t.features = each("learn.features", pending, func(it *catalog.Item) { learn.Features(it) })
	members := ens.Members()
	t.nb = each("learn.nb_predict", pending, func(it *catalog.Item) { members[0].Predict(it) })
	t.knn = each("learn.knn_predict", pending, func(it *catalog.Item) { members[1].Predict(it) })
	t.perceptron = each("learn.perceptron_predict", pending, func(it *catalog.Item) { members[2].Predict(it) })
	t.ensemble = each("learn.ensemble_predict", pending, func(it *catalog.Item) { ens.Predict(it) })
	t.classify = each("chimera.classify", items, func(it *catalog.Item) { l.audit.Classify(it) })
	t.processBatch = batch("chimera.process_batch", func() {
		t.declineRate = l.audit.ProcessBatch(items).Profile.DeclineRate
	})
	t.noAuditBatch = batch("chimera.process_batch_noaudit", func() { l.noAudit.ProcessBatch(items) })
	rec.close(root)
	t.wall = time.Since(begin).Seconds()
	return t
}

// coldTimes are the one-shot and write-path measurements of the ladder.
type coldTimes struct {
	activeViewMs, indexBuildMs, snapshotBuildMs float64
	mutateUs, appendUs, appendFsyncUs           float64
	walBytesPerMutation                         float64
	persistSnapshotMs, persistRestoreMs         float64
	trainS                                      float64
	cacheHitNs, cacheMissPutNs                  float64
	submitUs, scatterUs, routeNs                float64
}

// cold measures everything off the per-item hot path: rebuild pieces, bare
// and logged mutations, persistence, training, the cache's own operations
// and the serving tier's empty round trips.
func (l *lab) cold(rec *recorder, s *sut, w *World, items []*catalog.Item, sz sizes, p int, walDir func() string) (coldTimes, error) {
	var t coldTimes
	root := rec.open("ladder.cold", -1)
	defer rec.close(root)
	timed := func(name string, n int, fn func(i int) error) ([]float64, error) {
		return rec.timeCalls(root, name, n, fn)
	}
	// loopNs times n back-to-back calls under one span: these operations take
	// tens of nanoseconds, less than reading the clock.
	loopNs := func(name string, n int, fn func(i int)) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		end := time.Now()
		rec.add(name, root, -1, start, end)
		return float64(end.Sub(start)) / float64(n)
	}

	rb := l.noAudit.Rules
	var active []*core.Rule
	ds, _ := timed("core.active_view", sz.repeats, func(int) error { _, active = rb.ActiveView(); return nil })
	t.activeViewMs = median(ds) * 1e3
	ds, _ = timed("core.index_build", sz.repeats, func(int) error { core.NewIndexedExecutor(active); return nil })
	t.indexBuildMs = median(ds) * 1e3
	// One registry across the builds, as in an engine: the first build
	// registers the per-rule counters, later ones find them.
	buildReg := obs.NewRegistry()
	var snap *serve.Snapshot
	ds, _ = timed("serve.snapshot_build", sz.repeats+1, func(int) error { snap = serve.BuildSnapshot(rb, buildReg); return nil })
	t.snapshotBuildMs = median(ds[1:]) * 1e3

	ds, _ = timed("learn.train", 1, func(int) error {
		chimera.New(chimera.Config{Seed: pipelineSeed, Obs: obs.NewRegistry()}).Train(w.Train)
		return nil
	})
	t.trainS = ds[0]

	// The verdict cache's own operations, on a cache of a shard's size.
	cache := serve.NewVerdictCache(serve.CacheConfig{Capacity: cachePerShard}, obs.NewRegistry())
	verdicts := make([]*core.Verdict, len(items))
	for i, it := range items {
		verdicts[i] = snap.Apply(it)
		cache.Put(it.Fingerprint(), snap.Version(), verdicts[i])
	}
	t.cacheHitNs = loopNs("serve.cache_hit", len(items), func(i int) { cache.Get(items[i].Fingerprint(), snap.Version()) })
	t.cacheMissPutNs = loopNs("serve.cache_miss_put", len(items), func(i int) {
		fp := w.Pool[i].Fingerprint()
		if _, ok := cache.Get(fp, snap.Version()); !ok {
			cache.Put(fp, snap.Version(), verdicts[i])
		}
	})

	// Empty round trips: a handler that does nothing, so what is left is
	// queueing, hand-off and (for the tier) routing, scatter and gather.
	noop := func(context.Context, *serve.Snapshot, *catalog.Item) struct{} { return struct{}{} }
	eng := serve.NewEngine(rb, serve.EngineOptions{Obs: obs.NewRegistry()})
	srv := serve.NewServer(eng, noop, serve.ServerOptions{Workers: 1})
	ds, err := timed("serve.submit_roundtrip", len(items), func(i int) error {
		tk, err := srv.Submit(items[i : i+1])
		if err != nil {
			return err
		}
		_, _, err = tk.Wait()
		return err
	})
	srv.Drain()
	eng.Close()
	if err != nil {
		return t, err
	}
	t.submitUs = median(ds) * 1e6
	tier := serve.NewShardedServer(rb, noop, serve.ShardedOptions{Shards: p, Workers: 1, Obs: obs.NewRegistry()})
	const scatterItems = 16
	ds, err = timed("serve.scatter_roundtrip", len(items), func(i int) error {
		lo := i % (len(items) - scatterItems + 1)
		tk, err := tier.Submit(items[lo : lo+scatterItems])
		if err != nil {
			return err
		}
		return tk.Wait().Err()
	})
	tier.Close()
	if err != nil {
		return t, err
	}
	t.scatterUs = median(ds) * 1e6
	router := serve.NewShardRouter(p, 0)
	t.routeNs = loopNs("serve.route", len(items), func(i int) { router.ShardFor(items[i].RouteKey()) })

	// Mutations, last: they move the lab rulebase's version. One walk round
	// the ring, bare first, then carried on with a WAL attached, without and
	// with fsync.
	m, k := newMutator(rb, s.ringIDs, 0), 0
	walk := func(name string) ([]float64, error) {
		return timed(name, sz.ladderMuts, func(int) error {
			_, err := m.step(k)
			k++
			return err
		})
	}
	ds, err = walk("core.mutate")
	if err != nil {
		return t, err
	}
	bare := median(ds)
	t.mutateUs = bare * 1e6
	logged := func(name string, fsync bool, then func(st *persist.Store, dir string) error) (float64, error) {
		dir := walDir()
		defer os.RemoveAll(dir)
		st, err := persist.Open(persist.Options{Dir: dir, Fsync: fsync, SnapshotEvery: -1})
		if err != nil {
			return 0, err
		}
		if err := st.Attach(rb); err != nil {
			_ = st.Close()
			return 0, err
		}
		before := st.WALSize()
		ds, err := walk(name)
		if err == nil && !fsync {
			t.walBytesPerMutation = float64(st.WALSize()-before) / float64(sz.ladderMuts)
		}
		if err == nil && then != nil {
			err = then(st, dir)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return median(ds), err
	}
	with, err := logged("persist.append", false, func(st *persist.Store, dir string) error {
		// Restore first, while the WAL still holds the walk's records:
		// baseline snapshot plus replay. Snapshot then compacts them away.
		ds, err := timed("persist.restore", sz.repeats, func(int) error {
			rs, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				return err
			}
			_, err = rs.Restore(core.NewRulebase())
			if cerr := rs.Close(); err == nil {
				err = cerr
			}
			return err
		})
		if err != nil {
			return err
		}
		t.persistRestoreMs = median(ds) * 1e3
		ds, err = timed("persist.snapshot", sz.repeats, func(int) error { return st.Snapshot() })
		t.persistSnapshotMs = median(ds) * 1e3
		return err
	})
	if err != nil {
		return t, err
	}
	t.appendUs = (with - bare) * 1e6
	with, err = logged("persist.append_fsync", true, nil)
	if err != nil {
		return t, err
	}
	t.appendFsyncUs = (with - bare) * 1e6
	return t, nil
}

// probeMops runs a fixed ALU loop for about d and returns millions of loop
// iterations per second: a reading of how fast the host was just before the
// traced window, never divided into another metric.
func probeMops(d time.Duration) float64 {
	const chunk = 1 << 20
	x := uint64(88172645463325252)
	start := time.Now()
	n := 0
	for time.Since(start) < d {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += chunk
	}
	el := time.Since(start).Seconds()
	if x == 0 { // keeps x live; xorshift never reaches 0
		return 0
	}
	return float64(n) / el / 1e6
}

// counterSum adds up a counter across registries.
func counterSum(regs []*obs.Registry, name string, labels ...string) int64 {
	var n int64
	for _, r := range regs {
		n += r.Counter(name, labels...).Value()
	}
	return n
}

// tierCounters is a reading of the program's own counters that the traced
// window takes deltas of.
type tierCounters struct {
	swaps, hits, misses, coalesced, shed, expired int64
	buildSeconds, fanoutSum                       float64
	fanoutCount                                   int64
	routed                                        []int64
}

func readCounters(s *sut) tierCounters {
	regs := s.registries()
	c := tierCounters{
		swaps:     counterSum(regs, serve.MetricSnapshotSwaps),
		hits:      counterSum(regs, serve.MetricCacheHits),
		misses:    counterSum(regs, serve.MetricCacheMisses),
		coalesced: counterSum(regs, serve.MetricCacheCoalesced),
		shed:      counterSum(regs, serve.MetricShed),
		expired:   counterSum(regs, serve.MetricDeadlineExpired),
	}
	for _, r := range regs {
		c.buildSeconds += r.Histogram(serve.MetricSnapshotBuild, obs.LatencyBuckets).Sum()
	}
	// The tier created this histogram with its own bounds; a registry hands
	// back the existing one whatever bounds are passed.
	fan := s.pipe.Obs.Histogram(serve.MetricScatterFanout, nil)
	c.fanoutSum, c.fanoutCount = fan.Sum(), fan.Count()
	for i := 0; i < s.p; i++ {
		c.routed = append(c.routed, s.pipe.Obs.Counter(serve.MetricShardRouted, "shard", strconv.Itoa(i)).Value())
	}
	return c
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced is --trace 1: W's set-up once, the single-threaded ladder replay
// (with spans, then once more without), W's own closed loop with a span per
// request, and the per-layer metrics.
func runTraced(opt options, p int) (*report, error) {
	opt.sz.minSetups, opt.sz.maxSetups = 1, 1
	pr, err := prepare(opt, p)
	if err != nil {
		return nil, err
	}
	defer pr.s.Close()
	rec := newRecorder()
	items := pr.w.Valid[:opt.sz.ladderItems]

	lb, err := newLab(pr.s, pr.w)
	if err != nil {
		return nil, err
	}
	lb.replay(nil, items, 1) // warms lazily built matchers, so neither measured replay pays for them
	hot := lb.replay(rec, items, opt.sz.repeats)
	plain := lb.replay(nil, items, opt.sz.repeats)
	coldT, err := lb.cold(rec, pr.s, pr.w, items, opt.sz, p, walDirFunc(opt.outDir))
	if err != nil {
		return nil, err
	}

	mops := probeMops(opt.sz.probe)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, cpu0 := readCounters(pr.s), cpuSeconds()
	res, err := runLoop(pr.call, pr.s, pr.tr, loopSpec{
		clients: opt.wl.clients(p), warm: opt.sz.warm, window: opt.window / time.Duration(opt.sz.tracedDiv), drain: opt.sz.drain,
		mutPerSec: opt.wl.MutPerSec, firstRequest: pr.firstReq,
	})
	if err != nil {
		return nil, err
	}
	c1, cpu1 := readCounters(pr.s), cpuSeconds()
	runtime.ReadMemStats(&m1)
	st := res.stats()

	win := rec.add("window", -1, -1, res.origin.Add(-opt.sz.warm), res.origin.Add(-opt.sz.warm).Add(res.wall))
	loopItems := 0
	for i, c := range res.comps {
		loopItems += c.items - c.failed
		rec.add("request", win, i, res.origin.Add(c.start), res.origin.Add(c.done))
	}
	for i, m := range res.muts {
		rec.add("mutation", win, i, res.origin.Add(m.start), res.origin.Add(m.ret))
	}
	if err := rec.write(filepath.Join(opt.outDir, "trace-"+opt.wl.Name+".json"), opt.wl, opt.seed); err != nil {
		return nil, err
	}

	n := float64(len(items))
	us := func(seconds float64) float64 { return seconds / n * 1e6 }
	rep := newReport(perLayerMetrics)
	rep.attempted = pr.checked.attempted + st.items + st.failedItems + st.mutations
	rep.failed = pr.checked.failed + st.failedItems + res.stale + st.unseen
	set := rep.set
	ni, reps := len(items), opt.sz.repeats

	set("catalog.prep_us_per_item", us(hot.prep), ni)
	set("core.batch_gate_us_per_item", us(hot.gate), reps)
	set("core.batch_match_us_per_item", us(hot.match), reps)
	set("core.candidates_per_item", div(float64(hot.candidates), float64(hot.applies)), int(hot.applies))
	set("core.candidate_match_ratio", div(float64(hot.matched), float64(hot.candidates)), int(hot.candidates))
	set("core.indexed_apply_us_per_item", us(hot.indexed), ni)
	set("core.active_view_ms", coldT.activeViewMs, reps)
	set("core.index_build_ms", coldT.indexBuildMs, reps)
	set("core.mutate_us", coldT.mutateUs, opt.sz.ladderMuts)
	set("learn.features_us_per_item", us(hot.features), ni)
	set("learn.nb_predict_us_per_item", us(hot.nb), ni)
	set("learn.knn_predict_us_per_item", us(hot.knn), ni)
	set("learn.perceptron_predict_us_per_item", us(hot.perceptron), ni)
	set("learn.ensemble_predict_us_per_item", us(hot.ensemble), ni)
	set("learn.train_s", coldT.trainS, 1)
	set("serve.snapshot_build_ms", coldT.snapshotBuildMs, reps)
	set("serve.rebuilds_per_mutation", div(float64(c1.swaps-c0.swaps), float64(len(res.muts))), len(res.muts))
	set("serve.rebuild_busy_share", div(c1.buildSeconds-c0.buildSeconds, res.wall.Seconds()), int(c1.swaps-c0.swaps))
	lookups := (c1.hits - c0.hits) + (c1.misses - c0.misses) + (c1.coalesced - c0.coalesced)
	set("serve.cache_hit_rate", div(float64(c1.hits-c0.hits), float64(lookups)), int(lookups))
	set("serve.cache_hit_ns", coldT.cacheHitNs, ni)
	set("serve.cache_miss_put_ns", coldT.cacheMissPutNs, ni)
	set("serve.submit_roundtrip_us", coldT.submitUs, ni)
	set("serve.scatter_roundtrip_us", coldT.scatterUs, ni)
	set("serve.route_ns_per_item", coldT.routeNs, ni)
	set("serve.fanout_mean", div(c1.fanoutSum-c0.fanoutSum, float64(c1.fanoutCount-c0.fanoutCount)), int(c1.fanoutCount-c0.fanoutCount))
	var routedMax, routedSum float64
	for i := range c1.routed {
		d := float64(c1.routed[i] - c0.routed[i])
		routedSum += d
		if d > routedMax {
			routedMax = d
		}
	}
	set("serve.shard_skew", div(routedMax*float64(len(c1.routed)), routedSum), int(routedSum))
	set("serve.latency_p99_ms", quantile(st.latencyMs, 0.99), len(st.latencyMs))
	set("serve.mutation_visible_p95_ms", quantile(st.visibleMs, 0.95), len(st.visibleMs))
	set("serve.shed_total", float64(c1.shed-c0.shed), len(res.comps))
	set("serve.expired_total", float64(c1.expired-c0.expired), len(res.comps))
	set("chimera.process_batch_us_per_item", us(hot.processBatch), reps)
	set("chimera.classify_us_per_item", us(hot.classify), ni)
	set("chimera.self_us_per_item", us(hot.processBatch-hot.gate-hot.match-hot.ensemble), reps)
	set("chimera.decline_rate", hot.declineRate, ni)
	set("obs.audit_us_per_item", us(hot.processBatch-hot.noAuditBatch), reps)
	set("persist.append_us", coldT.appendUs, opt.sz.ladderMuts)
	set("persist.append_fsync_us", coldT.appendFsyncUs, opt.sz.ladderMuts)
	set("persist.wal_bytes_per_mutation", coldT.walBytesPerMutation, opt.sz.ladderMuts)
	set("persist.snapshot_ms", coldT.persistSnapshotMs, reps)
	set("persist.restore_ms", coldT.persistRestoreMs, reps)
	li := float64(loopItems)
	set("process.allocs_per_item", div(float64(m1.Mallocs-m0.Mallocs), li), loopItems)
	set("process.bytes_per_item", div(float64(m1.TotalAlloc-m0.TotalAlloc), li), loopItems)
	set("process.cpu_us_per_item", div((cpu1-cpu0)*1e6, li), loopItems)
	set("process.cpu_utilisation", div(cpu1-cpu0, res.wall.Seconds()), 1)
	set("process.gc_cycles", float64(m1.NumGC-m0.NumGC), 1)
	set("process.trace_overhead_ratio", div(hot.wall, plain.wall), 1)
	set("host.probe_mops", mops, 1)

	// Where a single-threaded item's time goes, and how far the traced sum is
	// from the untraced ProcessBatch.
	rep.note("ladder %s: gate %.1f + match %.1f + ensemble %.1f (nb %.1f, knn %.1f, perceptron %.1f) + chimera self %.1f = %.1f us/item traced; untraced ProcessBatch %.1f us/item",
		opt.wl.Name, us(hot.gate), us(hot.match), us(hot.ensemble), us(hot.nb), us(hot.knn), us(hot.perceptron),
		us(hot.processBatch-hot.gate-hot.match-hot.ensemble), us(hot.processBatch), us(plain.processBatch))
	return rep, nil
}
