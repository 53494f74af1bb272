package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// replayBody is a resettable request body so the decode benchmark can
// replay the same document without re-wrapping a reader every op.
type replayBody struct{ strings.Reader }

func (*replayBody) Close() error { return nil }

// BenchmarkDecodePredictV2 isolates the pooled /v2 request-decode path:
// one op takes a decode target from v2BodyPool, decodes a single-query
// document carrying explicit targets and a CE telemetry window into it,
// and returns it to the pool. Tracked in BENCH_<machine-class>.json by
// scripts/bench.sh.
func BenchmarkDecodePredictV2(b *testing.B) {
	const doc = `{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["ue_risk"],` +
		`"ce":[{"t":1,"row":42,"col":3,"bank":0,"rank":1},` +
		`{"t":2,"row":42,"col":9,"bank":0,"rank":1,"bits":2},` +
		`{"t":2.5,"row":42,"col":9,"bank":0,"rank":1,"bits":3}]}`
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v2/predict", nil)
	req.Body = body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(doc)
		v := v2BodyPool.Get().(*predictBodyV2)
		if e := decodeBody(req, v); e != nil {
			b.Fatalf("decode failed: %v", e)
		}
		putV2Body(v)
	}
}

// warmPredictV2Body is the canonical warm query: a default-target (wer+pue)
// single-query /v2/predict.
const warmPredictV2Body = `{"workload":"backprop","trefp":2.283,"temp_c":60}`

// warmPredictV2 returns a function that sends warmPredictV2Body straight
// into h (no network) and reports the status code, after one warm-up
// request that trains and caches the models and primes the pools.
func warmPredictV2(tb testing.TB, h http.Handler) func() int {
	tb.Helper()
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v2/predict", strings.NewReader(warmPredictV2Body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		tb.Fatalf("warmup returned %d", code)
	}
	return do
}

// BenchmarkServePredictV2 is the canonical serving-layer benchmark: one op
// is a warm single-query POST /v2/predict straight into the handler (no
// network), exercising resolve, the pooled predict path and JSON response
// encoding. Tracked in BENCH_<machine-class>.json by scripts/bench.sh.
func BenchmarkServePredictV2(b *testing.B) {
	s := New(testDataset(b), Options{Quick: true, Seed: 3, Workers: 2})
	defer s.Close()
	do := warmPredictV2(b, s.Handler())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("request %d returned %d", i, code)
		}
	}
}

// maxWarmPredictV2Allocs bounds the allocations of one warm wer+pue
// /v2/predict through the handler, request and recorder construction
// included: the request runs both predictors on its own goroutine, so the
// allocations left are request construction, decode, the workload lookup,
// response encoding and the device-level ByRank result.
const maxWarmPredictV2Allocs = 44

// TestWarmPredictV2Allocs pins the handler's allocation count on the same
// warm request BenchmarkServePredictV2 times, so a reintroduced per-query
// goroutine, channel or closure fails here rather than only in the
// benchmark gate.
func TestWarmPredictV2Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; alloc counts unreliable")
	}
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	do := warmPredictV2(t, s.Handler())
	allocs := testing.AllocsPerRun(200, func() {
		if code := do(); code != http.StatusOK {
			t.Fatalf("warm predict returned %d", code)
		}
	})
	if allocs > maxWarmPredictV2Allocs {
		t.Fatalf("warm /v2/predict allocates %.1f/op, want <= %d", allocs, maxWarmPredictV2Allocs)
	}
}
