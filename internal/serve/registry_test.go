package serve

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/workload"
)

// These are the regression tests for the sticky-error bug: before the
// generation rework, a transient train() or profile.BuildAt failure was
// stored under a sync.Once and returned to every future request for the
// life of the process. Errors must not be cached: the entry clears, the
// next request retries the fill and counts as a miss.

func TestTrainFailureNotSticky(t *testing.T) {
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	var calls atomic.Int64
	realTrain := s.train
	s.train = func(ds *core.Dataset, target core.Target, kind core.ModelKind, set core.InputSet, workers int) (core.Predictor, error) {
		if target == core.TargetWER && calls.Add(1) == 1 {
			return nil, errors.New("injected one-shot fit failure")
		}
		return realTrain(ds, target, kind, set, workers)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// First request hits the injected failure.
	resp, data := postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first predict = %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "one-shot fit failure") {
		t.Fatalf("train error not surfaced: %s", data)
	}
	m := scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 1 || m["dramserve_model_registry_hits_total"] != 0 {
		t.Fatalf("after failed fill: misses=%v hits=%v",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}
	if m["dramserve_model_train_failures_total"] != 1 {
		t.Fatalf("train failures = %v", m["dramserve_model_train_failures_total"])
	}

	// The very next request must retry the fit and succeed — the failure
	// was not cached.
	resp, data = postPredict(t, ts, `{"workload":"nw","trefp":1.173,"temp_c":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second predict = %d (sticky error?): %s", resp.StatusCode, data)
	}
	// Retry accounting: the re-fit is a miss (the fill really ran again),
	// never a hit.
	m = scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 3 || m["dramserve_model_registry_hits_total"] != 0 {
		t.Fatalf("after recovery: misses=%v hits=%v (wer retry + pue first fit should be misses)",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}
	if calls.Load() != 2 {
		t.Fatalf("trainer ran %d times, want 2", calls.Load())
	}

	// Steady state: pure hits again.
	if resp, data := postPredict(t, ts, `{"workload":"nw","trefp":2.283,"temp_c":70}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("third predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_model_registry_misses_total"] != 3 || m["dramserve_model_registry_hits_total"] != 2 {
		t.Fatalf("steady state: misses=%v hits=%v",
			m["dramserve_model_registry_misses_total"], m["dramserve_model_registry_hits_total"])
	}
}

func TestProfileFailureNotSticky(t *testing.T) {
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	var calls atomic.Int64
	realBuild := s.buildProfile
	s.buildProfile = func(spec workload.Spec, size workload.Size, seed uint64) (*profile.Result, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("injected one-shot profile failure")
		}
		return realBuild(spec, size, seed)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, data := postPredict(t, ts, `{"workload":"backprop","trefp":1.173,"temp_c":60}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first predict = %d: %s", resp.StatusCode, data)
	}
	m := scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 1 || m["dramserve_profile_cache_hits_total"] != 0 {
		t.Fatalf("after failed build: misses=%v hits=%v",
			m["dramserve_profile_cache_misses_total"], m["dramserve_profile_cache_hits_total"])
	}
	if m["dramserve_profile_build_failures_total"] != 1 {
		t.Fatalf("profile failures = %v", m["dramserve_profile_build_failures_total"])
	}

	// Next request rebuilds the profile (miss, not hit) and succeeds.
	resp, data = postPredict(t, ts, `{"workload":"backprop","trefp":1.173,"temp_c":60}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second predict = %d (sticky profile error?): %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 2 || m["dramserve_profile_cache_hits_total"] != 0 {
		t.Fatalf("after recovery: misses=%v hits=%v",
			m["dramserve_profile_cache_misses_total"], m["dramserve_profile_cache_hits_total"])
	}
	// And the profile is now cached: a repeat query is a pure hit.
	if resp, data := postPredict(t, ts, `{"workload":"backprop","trefp":2.283,"temp_c":70}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("third predict = %d: %s", resp.StatusCode, data)
	}
	m = scrapeMetrics(t, ts)
	if m["dramserve_profile_cache_misses_total"] != 2 || m["dramserve_profile_cache_hits_total"] != 1 {
		t.Fatalf("steady state: misses=%v hits=%v",
			m["dramserve_profile_cache_misses_total"], m["dramserve_profile_cache_hits_total"])
	}
}

// TestTrainFailureConcurrentWaitersRecover pins the bounded-retry path:
// requests that joined a fill which then fails must retry (one becomes the
// next creator) rather than inherit the error. With a one-shot failure,
// exactly the creator's request fails; every waiter recovers.
func TestTrainFailureConcurrentWaitersRecover(t *testing.T) {
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	var calls atomic.Int64
	gate := make(chan struct{})
	realTrain := s.train
	s.train = func(ds *core.Dataset, target core.Target, kind core.ModelKind, set core.InputSet, workers int) (core.Predictor, error) {
		if target == core.TargetWER && calls.Add(1) == 1 {
			// Hold the failing fill open until every concurrent request
			// has had a chance to join it as a waiter.
			<-gate
			return nil, errors.New("injected one-shot fit failure")
		}
		return realTrain(ds, target, kind, set, workers)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const n = 8
	codes := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"workload":"nw","trefp":1.173,"temp_c":60}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				errs[i] = err
				return
			}
			codes[i] = resp.StatusCode
		}(i)
	}
	// Give the requests time to pile onto the held fill, then release it.
	waitForMetric(t, ts, "dramserve_model_registry_hits_total", 1)
	close(gate)
	wg.Wait()

	fails := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d transport error: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			fails++
		}
	}
	// Exactly the creator of the failing fill surfaces the error; all the
	// waiters retried into the recovered fill.
	if fails != 1 {
		t.Fatalf("%d/%d requests failed, want exactly 1 (the failing fill's creator)", fails, n)
	}
	if calls.Load() != 2 {
		t.Fatalf("trainer ran %d times, want 2 (failed fill + one recovery fit)", calls.Load())
	}
}

// waitForMetric polls /metrics until name reaches at least want (the test
// then knows concurrent requests really joined the in-flight fill).
func waitForMetric(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if scrapeMetrics(t, ts)[name] >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metric %s never reached %v", name, want)
}

// TestCloseReleasesFillWaiters pins shutdown against a held cold fill: a
// request parked on another request's in-flight model fit must answer 503
// as soon as the server closes, without waiting for the fit, and the held
// fill must still complete cleanly once it returns.
func TestCloseReleasesFillWaiters(t *testing.T) {
	s := New(testDataset(t), Options{Quick: true, Seed: 3, Workers: 2})
	t.Cleanup(func() { s.Close() })
	entered := make(chan struct{})
	gate := make(chan struct{})
	realTrain := s.train
	s.train = func(ds *core.Dataset, target core.Target, kind core.ModelKind, set core.InputSet, workers int) (core.Predictor, error) {
		if target == core.TargetWER {
			close(entered)
			<-gate
		}
		return realTrain(ds, target, kind, set, workers)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var openGate sync.Once
	release := func() { openGate.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before ts.Close, which waits for the filler

	type result struct {
		code int
		err  error
	}
	send := func() <-chan result {
		out := make(chan result, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v2/predict", "application/json",
				strings.NewReader(`{"workload":"nw","trefp":1.173,"temp_c":60,"targets":["wer"]}`))
			if err != nil {
				out <- result{err: err}
				return
			}
			defer resp.Body.Close()
			_, err = io.ReadAll(resp.Body)
			out <- result{resp.StatusCode, err}
		}()
		return out
	}
	filler := send()
	<-entered
	waiter := send()
	waitForMetric(t, ts, "dramserve_model_registry_hits_total", 1)

	s.Close()
	select {
	case r := <-waiter:
		if r.err != nil {
			t.Fatalf("waiter transport error: %v", r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Fatalf("waiter after close = %d, want 503", r.code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still parked on the held fill after Close")
	}

	release()
	select {
	case r := <-filler:
		if r.err != nil {
			t.Fatalf("held fill's request transport error: %v", r.err)
		}
		if r.code != http.StatusOK && r.code != http.StatusServiceUnavailable {
			t.Fatalf("held fill's request = %d, want 200 or 503", r.code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("held fill never returned")
	}
}
