package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
)

// benchmarkJSON mirrors the keys of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result line: %v\n%s", err, out)
	}
	return r
}

func sortedNames(m map[string]resultMetric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var setupBound float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better, got %s/%s", m.Unit, m.Better)
			}
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setupBound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and not above setup_s's %v", m.Name, m.Bound, setupBound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, d := range perLayerMetrics {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, m.Name, m.Unit, d.Name, d.Unit)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(3 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// Every workload in both modes, at smoke size: the names printed are the
// names in BENCHMARK.json, no end-to-end value is 0, nothing failed, and the
// run leaves no goroutine and no WAL directory behind.
func TestSmokeAllWorkloadsBothModes(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if _, err := world(); err != nil { // built once, outside the timed part and the goroutine baseline
		t.Fatal(err)
	}
	want := [2][]string{}
	for _, m := range b.EndToEnd {
		want[0] = append(want[0], m.Name)
	}
	for _, m := range b.PerLayer {
		want[1] = append(want[1], m.Name)
	}
	sort.Strings(want[0])
	sort.Strings(want[1])

	out := t.TempDir()
	base := runtime.NumGoroutine()
	start := time.Now()
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--smoke", "--workload", w.Name, "--seed", "11", "--trace", fmt.Sprint(trace), "--out", out},
				&stdout, &stderr, nil)
			if code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if got := sortedNames(r.Metrics); strings.Join(got, " ") != strings.Join(want[trace], " ") {
				t.Errorf("%s trace %d: printed %v, BENCHMARK.json names %v", w.Name, trace, got, want[trace])
			}
			for name, m := range r.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: printed metric name %q", w.Name, name)
				}
				if trace == 0 && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
			if n := waitGoroutines(base); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s trace %d: %d goroutines left running (baseline %d)\n%s", w.Name, trace, n, base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
	elapsed := time.Since(start)
	t.Logf("8 smoke runs took %v", elapsed)
	if elapsed > 15*time.Second {
		t.Errorf("smoke runs took %v, want under 15 s", elapsed)
	}
	left, _ := filepath.Glob(filepath.Join(out, "wal-*"))
	if len(left) > 0 {
		t.Errorf("WAL scratch directories left behind: %v", left)
	}
}

// One corrupted decision and one shed request must both be counted, make the
// result incorrect and the exit code non-zero.
func TestInjectedFailuresAreCounted(t *testing.T) {
	wl := workloadByName("serve_repeat")
	var calls atomic.Int64
	wrap := func(next callFunc) callFunc {
		return func(items []*catalog.Item) reply {
			switch calls.Add(1) { // both injections fall in the quality pass, before the window's callers start
			case 2: // in the quality pass: a decision the oracle will not agree with
				rep := next(items)
				rep.decisions[0].Type += "-corrupted"
				return rep
			case 4: // a request shed whole: no decision for any of its items
				return reply{failed: len(items)}
			}
			return next(items)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--smoke", "--workload", wl.Name, "--seed", "5", "--trace", "0", "--out", t.TempDir()},
		&stdout, &stderr, wrap)
	r := lastLine(t, stdout.String())
	if want := 1 + wl.ReqItems; r.Failed != want {
		t.Errorf("failed = %d, want %d (one corrupted decision + one shed request of %d items)", r.Failed, want, wl.ReqItems)
	}
	if r.Correct {
		t.Error("correct is true with failed operations")
	}
	if code == 0 {
		t.Error("exit code 0 with failed operations")
	}
	if !strings.Contains(stderr.String(), "operations failed") {
		t.Errorf("stderr does not say what went wrong: %q", stderr.String())
	}
}

// A part served below a version its shard had already reported to the same
// caller is a failed operation.
func TestStaleVersionIsCounted(t *testing.T) {
	w, err := world()
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildSUT(sutConfig{}, w, w.CloneRules(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	calls := 0
	call := func(items []*catalog.Item) reply {
		rep := s.call(items)
		if calls++; calls == 3 {
			rep.shardVersion[0] = 1 // far below anything a 10,000-rule rulebase has reported
		}
		return rep
	}
	res, err := runLoop(call, s, NewTraffic(w, 1, 100, 0), loopSpec{
		clients: 1, window: 200 * time.Millisecond, drain: 2 * time.Second, mutPerSec: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.stale != 1 {
		t.Errorf("stale = %d, want 1", res.stale)
	}
	if st := res.stats(); st.unseen != 0 || st.mutations != 4 {
		t.Errorf("unseen %d of %d mutations, want 0 of 4", st.unseen, st.mutations)
	}
}

// A mutation no later request was wholly at or above is a failed operation.
func TestUnseenMutationIsCounted(t *testing.T) {
	res := &loopResult{
		window: time.Second,
		comps: []completion{
			{start: 10 * time.Millisecond, done: 20 * time.Millisecond, minVersion: 5, items: 4},
			{start: 30 * time.Millisecond, done: 40 * time.Millisecond, minVersion: 6, items: 4},
		},
		muts: []mutationRec{
			{ret: 15 * time.Millisecond, version: 6, inWindow: true}, // seen by the second completion
			{ret: 35 * time.Millisecond, version: 7, inWindow: true}, // never seen
		},
	}
	st := res.stats()
	if st.mutations != 2 || st.unseen != 1 || len(st.visibleMs) != 1 {
		t.Fatalf("mutations %d unseen %d samples %d, want 2, 1, 1", st.mutations, st.unseen, len(st.visibleMs))
	}
	if got := st.visibleMs[0]; got != 25 {
		t.Errorf("visibility %v ms, want 25 (mutation returned at 15 ms, first request wholly at version 6 completed at 40 ms)", got)
	}
	if st.requests != 2 || st.items != 8 {
		t.Errorf("requests %d items %d, want 2 and 8", st.requests, st.items)
	}
}

// In a directory that holds only BENCHMARK.json and benchmark/, run.sh must
// fail without printing a result line.
func TestRunShFailsWithoutRepository(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	dir := t.TempDir()
	copyFile := func(from, to string) {
		data, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, data, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	copyFile(filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "BENCHMARK.json"))
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !f.IsDir() {
			copyFile(f.Name(), filepath.Join(dir, "benchmark", f.Name()))
		}
	}
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", "batch_rules", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if err == nil {
		t.Fatalf("run.sh succeeded without the repository:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("run.sh printed on standard output before failing:\n%s", stdout.String())
	}
	t.Logf("run.sh failed as it should: %v\n%s", err, stderr.String())
}
