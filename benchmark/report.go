package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef names one metric; the lists below are the ones in BENCHMARK.json
// (TestNamesMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	Name, Unit string
}

var endToEndMetrics = []metricDef{
	{"items_per_sec", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"mutation_visible_p50_ms", "ms"},
	{"precision", "ratio"},
	{"recall", "ratio"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayerMetrics = []metricDef{
	{"catalog.prep_us_per_item", "us"},
	{"core.batch_gate_us_per_item", "us"},
	{"core.batch_match_us_per_item", "us"},
	{"core.candidates_per_item", "count"},
	{"core.candidate_match_ratio", "ratio"},
	{"core.indexed_apply_us_per_item", "us"},
	{"core.active_view_ms", "ms"},
	{"core.index_build_ms", "ms"},
	{"core.mutate_us", "us"},
	{"learn.features_us_per_item", "us"},
	{"learn.nb_predict_us_per_item", "us"},
	{"learn.knn_predict_us_per_item", "us"},
	{"learn.perceptron_predict_us_per_item", "us"},
	{"learn.ensemble_predict_us_per_item", "us"},
	{"learn.train_s", "s"},
	{"serve.snapshot_build_ms", "ms"},
	{"serve.rebuilds_per_mutation", "ratio"},
	{"serve.rebuild_busy_share", "ratio"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.cache_hit_ns", "ns"},
	{"serve.cache_miss_put_ns", "ns"},
	{"serve.submit_roundtrip_us", "us"},
	{"serve.scatter_roundtrip_us", "us"},
	{"serve.route_ns_per_item", "ns"},
	{"serve.fanout_mean", "count"},
	{"serve.shard_skew", "ratio"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.mutation_visible_p95_ms", "ms"},
	{"serve.shed_total", "count"},
	{"serve.expired_total", "count"},
	{"chimera.process_batch_us_per_item", "us"},
	{"chimera.classify_us_per_item", "us"},
	{"chimera.self_us_per_item", "us"},
	{"chimera.decline_rate", "ratio"},
	{"obs.audit_us_per_item", "us"},
	{"persist.append_us", "us"},
	{"persist.append_fsync_us", "us"},
	{"persist.wal_bytes_per_mutation", "bytes"},
	{"persist.snapshot_ms", "ms"},
	{"persist.restore_ms", "ms"},
	{"process.allocs_per_item", "count"},
	{"process.bytes_per_item", "bytes"},
	{"process.cpu_us_per_item", "us"},
	{"process.cpu_utilisation", "cores"},
	{"process.gc_cycles", "count"},
	{"process.trace_overhead_ratio", "ratio"},
	{"host.probe_mops", "Mops/s"},
}

// measured is one metric's value with the number of samples behind it.
type measured struct {
	value   float64
	samples int
}

// report collects a run's metrics and tallies and prints them.
type report struct {
	defs      []metricDef
	values    map[string]measured
	attempted int
	failed    int
	notes     []string // printed as "# ..." lines above the metrics
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]measured{}}
}

func (r *report) set(name string, value float64, samples int) {
	r.values[name] = measured{value, samples}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// print writes one "name value unit n=samples" line per metric, in the
// order of defs, then the contract's result line. A metric that was never set
// is a bug in the harness and is reported as such.
func (r *report) print(w io.Writer) error {
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, d := range r.defs {
		m, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(w, "%-40s %16.6g %-7s n=%d\n", d.Name, m.value, d.Unit, m.samples)
		line.Metrics[d.Name] = resultMetric{m.value, d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
