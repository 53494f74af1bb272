package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// slowServer answers one request at a time with a fixed service time: a
// fake handler of known capacity (one request per service time).
func slowServer(service time.Duration) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(service)
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
}

func fakePhase(rate float64, length time.Duration) *phase {
	bodies := [][]byte{[]byte("{}")}
	return &phase{name: "fake", rate: rate, length: length, ops: schedule(rate, length, 0, bodies)}
}

// Against a fake server of 500 requests per second: the saturation phase
// measures that capacity, a phase below it is valid, and a phase above it
// is flagged for its growing backlog.
func TestCapacityAndBacklogDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for a few seconds")
	}
	srv := slowServer(2 * time.Millisecond)
	defer srv.Close()
	ctx := context.Background()

	ph, rate := saturate(ctx, srv.URL, [][]byte{[]byte("{}")}, 0, time.Second)
	if rate < 350 || rate > 520 {
		t.Errorf("saturated rate %.0f/s from a 500/s server", rate)
	}
	if issued, failed := ph.counts(); issued == 0 || failed != 0 {
		t.Errorf("saturation: %d issued, %d failed", issued, failed)
	}

	under := fakePhase(100, time.Second)
	runPhase(ctx, srv.URL, under)
	if why := under.invalid(); why != "" {
		t.Fatalf("100/s into a 500/s server: %s", why)
	}
	if got := len(under.latencies(opPredict)); got != 100 {
		t.Fatalf("%d of 100 answers", got)
	}

	over := fakePhase(1000, 1200*time.Millisecond) // 1200 requests, 2.4 s of work
	runPhase(ctx, srv.URL, over)
	if why := over.invalid(); !strings.Contains(why, "backlog") {
		t.Fatalf("1000/s into a 500/s server: invalid()=%q, backlog %v", why, over.backlog())
	}
}
