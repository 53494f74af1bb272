package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a timing may report as its tail,
// highest first. p99 is the ceiling: above it a 10-run spread is dominated
// by a handful of samples, and the name of every tail metric says p99.
var tailCandidates = []float64{0.99, 0.95, 0.90, 0.50}

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it.
const minBeyond = 10

// sample is a set of durations with its order statistics.
type sample struct {
	sorted []time.Duration
}

func newSample(ds []time.Duration) sample {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return sample{sorted: s}
}

func (s sample) n() int { return len(s.sorted) }

// at is the nearest-rank q-quantile (0 when the sample is empty).
func (s sample) at(q float64) time.Duration {
	if len(s.sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return s.sorted[i]
}

// tail returns the highest candidate percentile with at least minBeyond
// samples above its rank, and its value. ok is false when even the median
// lacks that support.
func (s sample) tail() (q float64, v time.Duration, ok bool) {
	n := len(s.sorted)
	for _, c := range tailCandidates {
		if n-int(math.Ceil(c*float64(n))) >= minBeyond {
			return c, s.at(c), true
		}
	}
	return 0, 0, false
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median of a float slice (0 when empty); the input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles reproduces Python's statistics.quantiles(data, n=4) with its
// default "exclusive" method, so spreads computed here match the ones a
// Python reader computes from the same values. It needs two values.
func quartiles(vs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(vs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}
