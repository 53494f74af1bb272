package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// lcg is a tiny deterministic generator for test fixtures (no global rand).
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(*r>>11) / float64(1<<53)
}

func knnFixture(n, d int, seed uint64) ([][]float64, []float64) {
	r := lcg(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.next()*4 - 2
		}
		X[i] = row
		y[i] = math.Sin(row[0]) + 0.5*row[1%d] + r.next()*0.01
	}
	return X, y
}

func TestKNNPredictDimensionMismatchPanics(t *testing.T) {
	X, y := knnFixture(20, 8, 1)
	m, err := KNN{K: 3}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]float64{nil, make([]float64, 7), make([]float64, 9)} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("query of %d features accepted against 8-dim model", len(bad))
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "features") {
					t.Fatalf("panic message not diagnosable: %v", msg)
				}
			}()
			m.Predict(bad)
		}()
	}
	// The exact training dimensionality still works.
	if got := m.Predict(X[0]); math.IsNaN(got) {
		t.Fatalf("valid query returned %v", got)
	}
}

// TestSelectNearestMatchesSort proves the quickselect path picks exactly
// the same neighbourhood as a full sort, across sizes, k values and
// adversarial tie patterns.
func TestSelectNearestMatchesSort(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 13, 64, 257} {
		for _, k := range []int{1, 2, 5, 12, 13} {
			if k > n {
				continue
			}
			for _, ties := range []bool{false, true} {
				r := lcg(uint64(n*1000 + k))
				cands := make([]neighbor, n)
				for i := range cands {
					d2 := r.next()
					if ties {
						// Quantize so many candidates collide exactly.
						d2 = math.Floor(d2*4) / 4
					}
					cands[i] = neighbor{d2: d2, y: float64(i)}
				}
				ref := append([]neighbor(nil), cands...)
				sort.Slice(ref, func(a, b int) bool { return ref[a].d2 < ref[b].d2 })

				got := append([]neighbor(nil), cands...)
				selectNearest(got, k)
				// The selected prefix must hold the same multiset of
				// distances as the sorted prefix (ties make the specific
				// members ambiguous, but the distances are pinned).
				gd := make([]float64, k)
				wd := make([]float64, k)
				for i := 0; i < k; i++ {
					gd[i], wd[i] = got[i].d2, ref[i].d2
				}
				sort.Float64s(gd)
				for i := range gd {
					if gd[i] != wd[i] {
						t.Fatalf("n=%d k=%d ties=%v: selected distances %v, want %v", n, k, ties, gd, wd)
					}
				}
				// And nothing outside the prefix may be strictly nearer
				// than the worst selected distance.
				worst := gd[k-1]
				for i := k; i < n; i++ {
					if got[i].d2 < worst {
						t.Fatalf("n=%d k=%d ties=%v: candidate %v outside prefix beats worst selected %v",
							n, k, ties, got[i].d2, worst)
					}
				}
			}
		}
	}
}

// TestKNNPredictDeterministic pins that repeated predictions are
// bit-identical (quickselect has no randomized pivoting).
func TestKNNPredictDeterministic(t *testing.T) {
	X, y := knnFixture(512, 16, 7)
	m, err := KNN{K: 5}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, 16)
	for j := range q {
		q[j] = 0.1 * float64(j)
	}
	first := m.Predict(q)
	for i := 0; i < 10; i++ {
		if got := m.Predict(q); got != first {
			t.Fatalf("prediction drifted: %v vs %v", got, first)
		}
	}
}

// knnPredictBySort is the pre-optimization reference: per-query candidate
// allocation and a full sort instead of the pooled arena and k-selection.
// The distance loop reads the same rows in the same element order as the
// original [][]float64 layout, so it still stands in for the historic
// implementation bit-for-bit. Kept for the benchmark comparison and the
// equivalence test below.
func knnPredictBySort(m *knnModel, x []float64) float64 {
	cands := make([]neighbor, len(m.y))
	for i := range cands {
		row := m.flat[i*m.dim : i*m.dim+m.dim]
		d2 := 0.0
		for j := range row {
			dv := row[j] - x[j]
			d2 += dv * dv
		}
		cands[i] = neighbor{d2: d2, y: m.y[i]}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d2 < cands[b].d2 })
	var num, den float64
	for i := 0; i < m.k; i++ {
		w := 1 / (math.Sqrt(cands[i].d2) + 1e-9)
		num += w * cands[i].y
		den += w
	}
	return num / den
}

func TestKNNPredictMatchesSortReference(t *testing.T) {
	X, y := knnFixture(800, 12, 3)
	reg, err := KNN{K: 5}.Train(X, y)
	if err != nil {
		t.Fatal(err)
	}
	m := reg.(*knnModel)
	r := lcg(99)
	for qi := 0; qi < 50; qi++ {
		q := make([]float64, 12)
		for j := range q {
			q[j] = r.next()*4 - 2
		}
		got, want := m.Predict(q), knnPredictBySort(m, q)
		if got != want {
			t.Fatalf("query %d: selection %v != sort reference %v", qi, got, want)
		}
	}
}

// BenchmarkKNNPredict measures the hot serving path: one Predict against a
// production-sized training set.
func BenchmarkKNNPredict(b *testing.B) {
	X, y := knnFixture(8192, 32, 11)
	reg, err := KNN{K: 5}.Train(X, y)
	if err != nil {
		b.Fatal(err)
	}
	m := reg.(*knnModel)
	q := make([]float64, 32)
	for j := range q {
		q[j] = 0.05 * float64(j)
	}
	m.Predict(q) // warm the scratch pool before counting allocs
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Predict(q)
		}
	})
}
