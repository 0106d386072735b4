package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binPath is the chimera binary built once in TestMain; the CLI tests drive
// the real executable end to end, flags and exit codes included.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chimera-cli")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	binPath = filepath.Join(dir, "chimera")
	build := exec.Command("go", "build", "-o", binPath, ".")
	if out, err := build.CombinedOutput(); err != nil {
		panic("building chimera: " + err.Error() + "\n" + string(out))
	}
	os.Exit(m.Run())
}

// run executes the binary with small-world flags plus extra, returning
// combined output and the exit error (nil on success).
func run(t *testing.T, extra ...string) (string, error) {
	t.Helper()
	args := append([]string{
		"-types", "20", "-train", "400", "-batches", "2", "-batch-size", "150",
	}, extra...)
	out, err := exec.Command(binPath, args...).CombinedOutput()
	return string(out), err
}

// TestCLIBaseRun checks the operating-log skeleton of a plain run.
func TestCLIBaseRun(t *testing.T) {
	out, err := run(t)
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"bootstrapping: 20 types, 400 training items",
		"initial state:",
		"epoch 0 mixed vendors",
		"final state:",
		"precision history:",
		"== decision paths ==",
		"classifier/classified",
		"audit: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== serve drill ==") {
		t.Errorf("serve drill ran without -serve:\n%s", out)
	}
}

// TestCLIDiagnostics exercises -metrics prom, -health and -profile together.
func TestCLIDiagnostics(t *testing.T) {
	out, err := run(t, "-metrics", "prom", "-health", "5", "-profile")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== per-batch stage timings ==",
		"== rule health (unhealthiest first) ==",
		"== metrics ==",
		"chimera_batches_total",
		"serve_snapshot_swaps_total", // pipeline classifies via snapshots now
		"serve_snapshot_version",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIMetricsJSON checks the JSON metric dump parses structurally (starts
// with the snapshot object) and includes the serving gauge.
func TestCLIMetricsJSON(t *testing.T) {
	out, err := run(t, "-metrics", "json")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "== metrics ==") ||
		!strings.Contains(out, `"serve_snapshot_version"`) {
		t.Errorf("JSON metrics dump missing serve gauge:\n%s", out)
	}
}

// TestCLIBadMetricsFlag: an invalid -metrics value must exit 2 with a usage
// message, not run the pipeline.
func TestCLIBadMetricsFlag(t *testing.T) {
	out, err := exec.Command(binPath, "-metrics", "bogus").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(string(out), `-metrics must be "json" or "prom"`) {
		t.Errorf("missing usage message:\n%s", out)
	}
	if strings.Contains(string(out), "bootstrapping") {
		t.Errorf("pipeline ran despite bad flag:\n%s", out)
	}
}

// TestCLIServeDrill runs the -serve mode and checks the drill summary: work
// was served, the serving layer swapped snapshots under mutation, and the
// drill reports its accounting lines.
func TestCLIServeDrill(t *testing.T) {
	out, err := run(t, "-serve", "300ms", "-serve-clients", "2", "-serve-mutations", "200")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== serve drill ==",
		"clients 2, mutation target 200/s, window 300ms",
		"served: ",
		"mutations applied: ",
		"snapshot swaps: ",
		"final rulebase version: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "served: 0 batches") {
		t.Errorf("serve drill served nothing:\n%s", out)
	}
	for _, absent := range []string{"deadline ", "retry (max", "chaos:"} {
		if strings.Contains(out, absent) {
			t.Errorf("resilience line %q printed without its flag:\n%s", absent, out)
		}
	}
}

// TestCLIChaosRetryDrill is the resilience drill end to end: under -chaos
// the pool is undersized and faults are injected, so transient overload
// occurs; -retry wraps submissions in backoff and the summary plus the
// metric snapshot show the serve_retry_* accounting.
func TestCLIChaosRetryDrill(t *testing.T) {
	out, err := run(t, "-serve", "400ms", "-serve-clients", "6", "-chaos", "-retry", "5", "-metrics", "prom")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== serve drill ==",
		"retry (max 5): ",
		"sheds recovered on retry",
		"gave up",
		"chaos: ",
		"faults injected",
		"handler_latency",
		// serve_retry_* counters in the metric snapshot (ticket acceptance).
		"serve_retry_attempts_total",
		"serve_retry_success_total",
		"serve_retry_giveup_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "served: 0 batches") {
		t.Errorf("chaos drill served nothing:\n%s", out)
	}
	if strings.Contains(out, "chaos: 0 faults injected") {
		t.Errorf("chaos drill injected no faults:\n%s", out)
	}
	if strings.Contains(out, "retry (max 5): 0 attempts") {
		t.Errorf("chaos drill never retried — no transient overload reached the retrier:\n%s", out)
	}
}

// TestCLIDeadlineDrill: -deadline bounds each submission end to end and the
// summary reports the expiry accounting line.
func TestCLIDeadlineDrill(t *testing.T) {
	out, err := run(t, "-serve", "300ms", "-serve-clients", "2", "-deadline", "250ms")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== serve drill ==",
		"deadline 250ms: ",
		"expired (",
		"recorded while queued",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "served: 0 batches") {
		t.Errorf("deadline drill served nothing — deadline too tight for the small world:\n%s", out)
	}
}

// startOps launches the binary with -ops on an ephemeral port plus the small
// world and extra flags, parses the printed bound address, and returns the
// base URL. Stdout keeps draining in the background so the process never
// blocks on a full pipe; the process is killed at test cleanup.
func startOps(t *testing.T, extra ...string) string {
	t.Helper()
	args := append([]string{
		"-types", "20", "-train", "400", "-batches", "2", "-batch-size", "150",
		"-ops", "127.0.0.1:0",
	}, extra...)
	cmd := exec.Command(binPath, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ops: listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatal("ops server address never printed")
		return ""
	}
}

// pollStatus GETs url until it answers with the wanted status code or the
// budget runs out.
func pollStatus(url string, want int, budget time.Duration) bool {
	end := time.Now().Add(budget)
	for time.Now().Before(end) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == want {
				return true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestCLIOpsSurface scrapes the live ops endpoints of a real `chimera -ops`
// process: /metrics shows the finished run's counters, /healthz reports
// healthy JSON, /decisions streams parseable NDJSON provenance, /snapshot
// describes the active rule set.
func TestCLIOpsSurface(t *testing.T) {
	base := startOps(t, "-ops-linger", "15s", "-audit-sample", "1")

	// The batch loop runs after the server comes up; poll until its counters
	// land in the scrape.
	deadline := time.Now().Add(30 * time.Second)
	var body string
	for {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
			if resp.StatusCode == 200 && strings.Contains(body, "chimera_batches_total 2") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed the finished run:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !strings.Contains(body, "# TYPE chimera_batches_total counter") {
		t.Errorf("/metrics missing TYPE header:\n%.400s", body)
	}

	code, health := httpGet(t, base+"/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d (%s)", code, health)
	}
	var st map[string]any
	if err := json.Unmarshal([]byte(health), &st); err != nil || st["degraded"] != false {
		t.Fatalf("/healthz body: %s (err %v)", health, err)
	}

	code, decisions := httpGet(t, base+"/decisions?n=8")
	if code != 200 || strings.TrimSpace(decisions) == "" {
		t.Fatalf("/decisions = %d:\n%s", code, decisions)
	}
	for _, line := range strings.Split(strings.TrimSpace(decisions), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("NDJSON line did not parse: %v\n%s", err, line)
		}
		if rec["path"] == "" || rec["item_id"] == "" {
			t.Errorf("decision record missing provenance fields: %s", line)
		}
	}

	if code, snap := httpGet(t, base+"/snapshot"); code != 200 || !strings.Contains(snap, `"active_rules"`) {
		t.Fatalf("/snapshot = %d:\n%.300s", code, snap)
	}
}

// TestCLIOpsHealthFlipsUnderChaos is the liveness drill end to end: with
// every snapshot rebuild failing (-chaos -chaos-rebuild-p 1) the engine goes
// degraded and /healthz flips to 503; after the drill clears the injector and
// rebuilds cleanly, /healthz recovers to 200.
func TestCLIOpsHealthFlipsUnderChaos(t *testing.T) {
	base := startOps(t,
		"-serve", "900ms", "-serve-clients", "4", "-serve-mutations", "200",
		"-chaos", "-chaos-rebuild-p", "1", "-ops-linger", "15s")

	if !pollStatus(base+"/healthz", http.StatusServiceUnavailable, 30*time.Second) {
		t.Fatal("/healthz never flipped to 503 while rebuilds were failing")
	}
	if !pollStatus(base+"/healthz", 200, 30*time.Second) {
		t.Fatal("/healthz never recovered after the drill cleared the fault")
	}
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestCLIPersistRestart drives the durability story through the real
// binary: run one, mutated during its batch loop, compacts a snapshot into
// -persist-dir; run two restores the exact version, skips the analyst seed,
// and keeps appending from there.
func TestCLIPersistRestart(t *testing.T) {
	dir := t.TempDir()
	out, err := run(t, "-persist-dir", dir)
	if err != nil {
		t.Fatalf("first run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "persist: rulebase version ") {
		t.Fatalf("first run missing the durable-exit line:\n%s", out)
	}
	if strings.Contains(out, "persist: restored") {
		t.Errorf("first run claims to have restored from an empty dir:\n%s", out)
	}
	version := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "persist: rulebase version "); ok {
			version = strings.Fields(rest)[0]
		}
	}
	if version == "" {
		t.Fatalf("no version parsed from:\n%s", out)
	}
	for _, name := range []string{"snapshot.json", "wal.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("store file %s: %v", name, err)
		}
	}

	out2, err := run(t, "-persist-dir", dir)
	if err != nil {
		t.Fatalf("second run failed: %v\n%s", err, out2)
	}
	for _, want := range []string{
		"persist: restored rulebase version " + version + " from " + dir,
		"persist: skipping analyst seed",
		"persist: rulebase version ",
	} {
		if !strings.Contains(out2, want) {
			t.Errorf("second run missing %q:\n%s", want, out2)
		}
	}
}

// TestCLIPersistDrill runs the restart drill: mutate → kill (no parting
// snapshot) → restore → byte-equal verdicts, reported live by the binary.
func TestCLIPersistDrill(t *testing.T) {
	out, err := run(t, "-persist-drill")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== persist restart drill ==",
		"mutated to version ",
		"killed, restored snapshot v",
		"WAL records",
		"verdicts byte-equal: 200/200",
		"persist drill: OK",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIDecisionsOut: -decisions-out writes the retained provenance ring as
// parseable NDJSON with the expected fields.
func TestCLIDecisionsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.ndjson")
	out, err := run(t, "-decisions-out", path, "-audit-sample", "1")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "decisions: exported ") || !strings.Contains(out, path) {
		t.Fatalf("missing export line:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Fatalf("export holds %d records, expected the run's decisions", len(lines))
	}
	for _, line := range lines[:10] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("NDJSON line did not parse: %v\n%s", err, line)
		}
		if rec["item_id"] == "" || rec["path"] == "" || rec["outcome"] == "" {
			t.Errorf("decision record missing provenance fields: %s", line)
		}
	}
}

// TestCLIOpsDecisionsExport scrapes /decisions/export from a live -ops
// process: full-ring NDJSON served as an attachment.
func TestCLIOpsDecisionsExport(t *testing.T) {
	base := startOps(t, "-ops-linger", "15s", "-audit-sample", "1")
	if !pollStatus(base+"/healthz", 200, 30*time.Second) {
		t.Fatal("ops surface never came up")
	}
	// Wait for the batch loop to finish so the ring is populated.
	deadline := time.Now().Add(30 * time.Second)
	var body string
	var disposition string
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/decisions/export")
		if err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			body = string(b)
			disposition = resp.Header.Get("Content-Disposition")
			if resp.StatusCode == 200 && strings.Count(body, "\n") >= 100 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if strings.Count(body, "\n") < 100 {
		t.Fatalf("/decisions/export never filled up:\n%.400s", body)
	}
	if !strings.Contains(disposition, "attachment") {
		t.Errorf("Content-Disposition = %q, want attachment", disposition)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n")[:5] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("export NDJSON line did not parse: %v\n%s", err, line)
		}
	}
}

// TestCLIResilienceFlagsRequireServe: the drill-only flags exit 2 with a
// usage message when -serve is absent.
func TestCLIResilienceFlagsRequireServe(t *testing.T) {
	for _, flags := range [][]string{
		{"-chaos"},
		{"-deadline", "10ms"},
		{"-retry", "3"},
	} {
		out, err := exec.Command(binPath, flags...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%v: want exit error, got %v\n%s", flags, err, out)
		}
		if code := ee.ExitCode(); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2\n%s", flags, code, out)
		}
		if !strings.Contains(string(out), "set -serve too") {
			t.Errorf("%v: missing usage message:\n%s", flags, out)
		}
		if strings.Contains(string(out), "bootstrapping") {
			t.Errorf("%v: pipeline ran despite bad flag combination:\n%s", flags, out)
		}
	}
}

// TestCLIShardedDrill drives the scatter-gather tier end to end: the drill
// summary switches to the per-shard table, traffic spreads over more than
// one shard, and the single-engine drill lines stay absent.
func TestCLIShardedDrill(t *testing.T) {
	out, err := run(t, "-serve", "400ms", "-shards", "4", "-serve-clients", "4", "-cache", "256", "-metrics", "prom")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== sharded serve drill ==",
		"shards 4, clients 4",
		"scatter: ",
		"mutations applied: ",
		"cache (one, shared by all shards): ",
		"resident ",
		"shard ",
		"serve_shard_routed_total{shard=\"0\"}",
		"serve_scatter_batches_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== serve drill ==") {
		t.Errorf("single-engine drill ran alongside -shards:\n%s", out)
	}
	if strings.Contains(out, "scatter: 0 batches") {
		t.Errorf("sharded drill served nothing:\n%s", out)
	}
	// Traffic must actually fan out: at least two shards with routed > 0.
	busy := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && len(f[0]) == 1 && f[0] >= "0" && f[0] <= "9" && f[1] != "routed" && f[1] != "0" {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("traffic landed on %d shard(s), want fan-out across >= 2:\n%s", busy, out)
	}
}

// TestCLIShardedChaosDrill: -shards with -chaos stalls shard 0 and fails the
// tier's rebuilds; the summary prints the tier-level chaos and recovery lines.
func TestCLIShardedChaosDrill(t *testing.T) {
	out, err := run(t, "-serve", "400ms", "-shards", "3", "-serve-clients", "4",
		"-chaos", "-chaos-rebuild-p", "1.0", "-retry", "3")
	if err != nil {
		t.Fatalf("chimera failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"== sharded serve drill ==",
		"chaos: ",
		"shard_stall",
		"tier degraded: true",
		"recovery: tier degraded after clean rebuild: false",
		"retry (max 3, per-shard budgets): ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIShardsRequiresServe: -shards without -serve is a usage error.
func TestCLIShardsRequiresServe(t *testing.T) {
	out, err := run(t, "-shards", "4")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("expected exit 2, got %v\n%s", err, out)
	}
	if !strings.Contains(out, "-shards only apply to the serving drill") {
		t.Errorf("missing usage hint:\n%s", out)
	}
	if out2, err2 := run(t, "-serve", "100ms", "-shards", "-1"); err2 == nil ||
		!strings.Contains(out2, "-shards must be >= 0") {
		t.Errorf("negative -shards accepted: %v\n%s", err2, out2)
	}
}
