package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(n-i) * time.Microsecond // reversed: newSample must sort
	}
	return ds
}

// The reported tail is the highest candidate percentile with at least ten
// samples above its rank.
func TestTailPercentileSelection(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.90, true},
		{100, 0.90, true},
		{20, 0.50, true},
		{19, 0, false},
	} {
		q, v, ok := newSample(durations(c.n)).tail()
		if q != c.wantQ || ok != c.ok {
			t.Errorf("n=%d: tail p%g ok=%v, want p%g ok=%v", c.n, 100*q, ok, 100*c.wantQ, c.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, d := range durations(c.n) {
				if d > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g = %v has %d samples beyond it", c.n, 100*q, v, beyond)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must fail")
	}
}

// Every timing is printed with its sample count.
func TestReportPrintsSampleCounts(t *testing.T) {
	r := newReport()
	r.set("p99_ms", 1.5, 5000, "r500 p99")
	var buf bytes.Buffer
	r.printTable(&buf, []metricDef{{"p99_ms", "ms"}})
	if !strings.Contains(buf.String(), "n=5000") || !strings.Contains(buf.String(), "p99_ms") {
		t.Fatalf("table lacks the sample count:\n%s", buf.String())
	}
}
