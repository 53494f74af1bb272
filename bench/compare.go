package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []boundDef `json:"end_to_end"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRuns reads the untraced result files of dir into
// workload → metric → values.
func loadRuns(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace {
			continue
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[string][]float64{}
		}
		for name, v := range rf.Result.Metrics {
			out[rf.Workload][name] = append(out[rf.Workload][name], v.Value)
		}
	}
	return out, nil
}

// side is one set of runs of one (workload, metric).
type side struct {
	n           int
	q1, med, q3 float64
	spread      float64 // (q3 − q1) / |median|
	values      []float64
	ok          bool
}

func summarize(vs []float64) side {
	s := side{n: len(vs), values: vs}
	s.q1, s.med, s.q3, s.ok = quartiles(vs)
	if s.ok && s.med != 0 {
		s.spread = (s.q3 - s.q1) / math.Abs(s.med)
	}
	return s
}

// verdictOf judges B against A under one metric's bound and direction. A
// regression needs the median worse by more than the bound and the
// quartile ranges apart; a side whose own spread exceeds the bound leaves
// the metric unresolved unless every B run beats every A run.
func verdictOf(a, b side, d boundDef) (change float64, v string) {
	if !a.ok || !b.ok {
		return 0, "too few runs"
	}
	change = (b.med - a.med) / math.Abs(a.med)
	worse := change
	apartWorse, apartBetter := b.q1 > a.q3, b.q3 < a.q1
	allBetter := maxOf(b.values) < minOf(a.values)
	if d.Better == "higher" {
		worse = -change
		apartWorse, apartBetter = apartBetter, apartWorse
		allBetter = minOf(b.values) > maxOf(a.values)
	}
	switch {
	case worse > d.Bound && apartWorse:
		return change, "REGRESSION"
	case a.spread > d.Bound || b.spread > d.Bound:
		if allBetter {
			return change, "better"
		}
		return change, "unresolved"
	case -worse > d.Bound && apartBetter:
		return change, "better"
	}
	return change, "ok"
}

func minOf(vs []float64) float64 {
	m := math.Inf(1)
	for _, v := range vs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// runCompare is `compare -a DIR -b DIR`: per (workload, metric), each
// side's median and quartiles and a verdict under BENCHMARK.json's bound.
// It exits 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "directory of baseline result files (bench -out)")
	b := fs.String("b", "", "directory of candidate result files")
	spec := fs.String("benchmark", "", "BENCHMARK.json (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" {
		fmt.Fprintln(stderr, "compare: -a and -b are required")
		return 2
	}
	path := *spec
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = filepath.Join("..", "BENCHMARK.json")
		}
	}
	bf, err := loadBenchmarkFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	runsA, err := loadRuns(*a)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	runsB, err := loadRuns(*b)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	var names []string
	for w := range runsA {
		names = append(names, w)
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(stdout, "%-10s %-13s %30s %30s %8s %13s  %s\n", "workload", "metric",
		"A median [q1, q3] n", "B median [q1, q3] n", "change", "spread A/B", "verdict")
	for _, w := range names {
		for _, d := range bf.EndToEnd {
			sa, sb := summarize(runsA[w][d.Name]), summarize(runsB[w][d.Name])
			change, v := verdictOf(sa, sb, d)
			if v == "REGRESSION" {
				regressed = true
			}
			fmt.Fprintf(stdout, "%-10s %-13s %30s %30s %+7.1f%% %5.1f%%/%5.1f%%  %s (bound %.0f%%, %s is better)\n",
				w, d.Name, sideString(sa), sideString(sb), 100*change, 100*sa.spread, 100*sb.spread, v, 100*d.Bound, d.Better)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func sideString(s side) string {
	if !s.ok {
		return fmt.Sprintf("n=%d", s.n)
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.med, s.q1, s.q3, s.n)
}
