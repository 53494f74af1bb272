package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// (TestBenchmarkJSONMatchesCatalog pins the two together).
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user or operator of the service sees,
// reported by every workload with tracing off. Every workload prints every
// one of them, so each is defined per workload (README.md has the table):
// the median latency at the base load and under load, the sustained rate,
// the servers' CPU cost per query, set-up time and memory.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"load_p50_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"cpu_us_per_query", "us"},
	{"rss_mb", "MB"},
}

// perLayer are the layer-ladder metrics of a traced run. Each is timed from
// the benchmark around a public call into one layer, or scraped from the
// servers' /metrics counters.
var perLayer = []metricDef{
	{"core.predict_wer_us", "us"},
	{"core.predict_pue_us", "us"},
	{"core.predict_ue_risk_us", "us"},
	{"core.train_wer_ms", "ms"},
	{"core.train_pue_ms", "ms"},
	{"core.train_ue_risk_ms", "ms"},
	{"core.load_ms", "ms"},
	{"core.fingerprint_ms", "ms"},
	{"core.save_ms", "ms"},
	{"profile.build_ms", "ms"},
	{"serve.handler_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.self_us", "us"},
	{"serve.batch_size", "count"},
	{"serve.registry_miss_ratio", "ratio"},
	{"serve.ingest_us", "us"},
	{"serve.retrain_ms", "ms"},
	{"http.direct_us", "us"},
	{"http.self_us", "us"},
	{"cluster.handler_us", "us"},
	{"http.routed_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.fanout", "count"},
	{"cluster.hedges_per_1k", "count"},
	{"cluster.retries_per_1k", "count"},
	{"fleet.tick_us", "us"},
	{"policy.oracle_tick_ms", "ms"},
	{"policy.predict_us", "us"},
	{"policy.predict_p99_us", "us"},
	{"trace.overhead_us", "us"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics with the sample count behind each, and
// its request accounting.
type report struct {
	values    map[string]float64
	counts    map[string]int
	notes     map[string]string
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}, notes: map[string]string{}}
}

// set records a metric measured over n samples; note says what it is.
func (r *report) set(name string, v float64, n int, note string) {
	r.values[name] = v
	r.counts[name] = n
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a correctness problem. Each one counts as a failed
// operation and makes the run exit non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.failed++
}

// result builds the result line over the catalog, complaining about any
// metric the run did not measure.
func (r *report) result(defs []metricDef) (result, error) {
	out := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// printTable writes the human-readable metric table: name, value, unit and
// the sample count behind each number.
func (r *report) printTable(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-7d %s\n", d.name, r.values[d.name], d.unit, r.counts[d.name], r.notes[d.name])
	}
	extra := make([]string, 0)
	for k := range r.values {
		if !inCatalog(k, defs) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-7d %s\n", k, r.values[k], "", r.counts[k], r.notes[k])
	}
}

func inCatalog(name string, defs []metricDef) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
