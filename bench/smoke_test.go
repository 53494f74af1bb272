package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokePlan scales every phase down so all four workloads run in seconds.
func smokePlan() plan {
	p := planFor(20)
	p.phase = 500 * time.Millisecond
	p.rates = [2]float64{200, 400}
	p.saturate = 250 * time.Millisecond
	p.setupCycles = 1
	p.poolTicks = 8
	p.ticks = 8
	p.batchRows, p.ingestEvery, p.retrainRows = 16, 100*time.Millisecond, 96
	p.ladderReps, p.ladderQs = 1, 16
	return p
}

// TestSmoke runs every workload end to end against real server processes
// built from this checkout, the policy one traced, with scaled-down
// phases. The workloads run side by side: the smoke run checks answers and
// accounting, not speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the servers")
	}
	start := time.Now()
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	t.Run("workloads", func(t *testing.T) {
		for _, w := range []string{"steady", "routed", "telemetry", "policy"} {
			t.Run(w, func(t *testing.T) {
				t.Parallel()
				opts := options{workload: w, seed: 1, root: "..", trace: w == "policy", spans: spans}
				var out bytes.Buffer
				res, err := runWith(context.Background(), opts, smokePlan(), &out, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
			})
		}
	})
	if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
		t.Errorf("traced run wrote no spans: %v", err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20 s", d.Round(time.Second))
	}
}
