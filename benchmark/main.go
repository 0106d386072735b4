// Command bench is the repository's benchmark: four closed-loop workloads on
// a fixed 10,000-rule world, run through the public entry points only
// (Pipeline.ProcessBatch, ShardedServer.SubmitCtx), checked against an
// oracle, and reported as the metrics BENCHMARK.json names. README.md in
// this directory defines every workload and metric.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
)

// sizes are the amounts of work in one run; --smoke shrinks them so the test
// suite can run every workload in both modes in seconds.
type sizes struct {
	warm, drain time.Duration
	minSetups   int
	maxSetups   int
	setupBudget time.Duration
	passItems   int // validation items in the quality + oracle pass
	repeatItems int // items of the repeat stream checked against the oracle
	trainItems  int
	ladderItems int // validation items in the traced ladder replay
	ladderMuts  int // ring mutations in the traced ladder replay
	repeats     int // repetitions of each one-shot build/snapshot/restore measurement
	probe       time.Duration
	tracedDiv   int // the traced run's loop lasts window/tracedDiv
}

var fullSizes = sizes{
	warm: time.Second, drain: 2 * time.Second,
	minSetups: 3, maxSetups: 9, setupBudget: time.Second,
	passItems: worldValid, repeatItems: 1000, trainItems: worldTrain,
	ladderItems: 500, ladderMuts: 100, repeats: 5, probe: 500 * time.Millisecond, tracedDiv: 2,
}

var smokeSizes = sizes{
	warm: 100 * time.Millisecond, drain: 2 * time.Second,
	minSetups: 1, maxSetups: 1,
	passItems: 100, repeatItems: 100, trainItems: 200,
	ladderItems: 24, ladderMuts: 8, repeats: 1, probe: 20 * time.Millisecond, tracedDiv: 1,
}

// options is one invocation.
type options struct {
	wl     *workload
	seed   uint64
	window time.Duration
	trace  bool
	sz     sizes
	outDir string
	// wrap, when non-nil, wraps the workload's call path (tests inject
	// failures through it).
	wrap func(callFunc) callFunc
}

var (
	worldOnce sync.Once
	theWorld  *World
	worldErr  error
)

// world builds the fixed world once per process.
func world() (*World, error) {
	worldOnce.Do(func() { theWorld, worldErr = BuildWorld() })
	return theWorld, worldErr
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses args, runs one workload and prints its report to stdout. It
// returns the process exit code: 0 only when the run finished and no
// operation failed.
func run(args []string, stdout, stderr io.Writer, wrap func(callFunc) callFunc) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "traffic seed: walk start/stride, Zipf draws, ring offset")
	seconds := fs.Float64("seconds", 24, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a trace file")
	smoke := fs.Bool("smoke", false, "tiny passes and a 0.5 s window, for the test suite")
	outDir := fs.String("out", filepath.Join("benchmark", "out"), "directory for trace files and the WAL scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{wl: workloadByName(*name), seed: *seed, trace: *trace == 1, sz: fullSizes, outDir: *outDir, wrap: wrap}
	if opt.wl == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: --seconds must be positive\n")
		return 2
	}
	opt.window = time.Duration(*seconds * float64(time.Second))
	if *smoke {
		opt.sz, opt.window = smokeSizes, 500*time.Millisecond
	}

	p := runtime.NumCPU()
	if p > 2 {
		p = 2
	}
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)

	var rep *report
	var err error
	if opt.trace {
		rep, err = runTraced(opt, p)
	} else {
		rep, err = runEndToEnd(opt, p)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

var walSeq atomic.Int64

// walDirFunc hands out fresh WAL scratch directories under outDir.
func walDirFunc(outDir string) func() string {
	return func() string {
		return filepath.Join(outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), walSeq.Add(1)))
	}
}

// heapAlloc returns live heap bytes after two collections (the second one
// empties what the first one's finalizers and pool victims released).
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// prepared is a run after inputs, set-up and the quality pass.
type prepared struct {
	w          *World
	tr         *Traffic
	s          *sut
	call       callFunc
	setupTimes []float64
	pass       passResult // the validation pass: precision and recall come from it
	checked    passResult // every oracle-checked item (validation + repeat stream)
	heapLiveMB float64
	firstReq   int
}

// prepare does steps 1-3 of a run: inputs (untimed), set-up (timed, repeated),
// and the fixed-work quality + oracle pass.
func prepare(opt options, p int) (*prepared, error) {
	w, err := world()
	if err != nil {
		return nil, err
	}
	if opt.sz.trainItems < len(w.Train) {
		small := *w
		small.Train = w.Train[:opt.sz.trainItems]
		w = &small
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	pr := &prepared{w: w, tr: NewTraffic(w, opt.seed, opt.wl.ReqItems, opt.wl.HotShare)}
	base := heapAlloc()

	pr.s, pr.setupTimes, err = timedSetups(opt.wl.SUT, w, p, walDirFunc(opt.outDir),
		opt.sz.minSetups, opt.sz.maxSetups, opt.sz.setupBudget)
	if err != nil {
		return nil, err
	}
	pr.call = pr.s.call
	if opt.wrap != nil {
		pr.call = opt.wrap(pr.call)
	}

	orc, err := newOracle(pr.s, w.CloneRules())
	if err != nil {
		pr.s.Close()
		return nil, err
	}
	pr.pass = checkedPass(pr.call, orc, w.Valid[:opt.sz.passItems], opt.wl.ReqItems, p)
	pr.checked = pr.pass
	if opt.wl.HotShare > 0 {
		// The repeat stream's own first items, so that cache hits are checked
		// too; the window then carries on from the next request.
		items := make([]*catalog.Item, opt.sz.repeatItems)
		for i := range items {
			items[i] = pr.tr.Item(i)
		}
		pr.checked.add(checkedPass(pr.call, orc, items, opt.wl.ReqItems, p))
		pr.firstReq = (len(items) + opt.wl.ReqItems - 1) / opt.wl.ReqItems
	}
	// The oracle is unreachable from here on, so it is not counted.
	pr.heapLiveMB = (float64(heapAlloc()) - float64(base)) / (1 << 20)
	return pr, nil
}

// runEndToEnd is --trace 0: the eight end-to-end metrics.
func runEndToEnd(opt options, p int) (*report, error) {
	pr, err := prepare(opt, p)
	if err != nil {
		return nil, err
	}
	defer pr.s.Close()

	res, err := runLoop(pr.call, pr.s, pr.tr, loopSpec{
		clients: opt.wl.clients(p), warm: opt.sz.warm, window: opt.window, drain: opt.sz.drain,
		mutPerSec: opt.wl.MutPerSec, firstRequest: pr.firstReq,
	})
	if err != nil {
		return nil, err
	}
	st := res.stats()

	rep := newReport(endToEndMetrics)
	rep.attempted = pr.checked.attempted + st.items + st.failedItems + st.mutations
	rep.failed = pr.checked.failed + st.failedItems + res.stale + st.unseen
	rep.set("items_per_sec", st.itemsPerSec, st.requests)
	rep.set("latency_p50_ms", quantile(st.latencyMs, 0.5), len(st.latencyMs))
	rep.set("latency_p90_ms", quantile(st.latencyMs, 0.9), len(st.latencyMs))
	rep.set("mutation_visible_p50_ms", quantile(st.visibleMs, 0.5), len(st.visibleMs))
	rep.set("precision", div(float64(pr.pass.correct), float64(pr.pass.classified)), pr.pass.attempted)
	rep.set("recall", div(float64(pr.pass.correct), float64(pr.pass.attempted)), pr.pass.attempted)
	rep.set("heap_live_mb", pr.heapLiveMB, 1)
	rep.set("setup_s", median(pr.setupTimes), len(pr.setupTimes))
	return rep, nil
}

// div is a / b, and 0 when there is nothing to divide by (a mechanism the
// workload bypasses has no denominator).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
