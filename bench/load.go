package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// issuers is the number of goroutines sending requests, each on a
// connection of its own, and connsPerHost caps the connections of the
// shared client that policy.HTTPPredict uses. Both match the two cores the
// benchmark was calibrated on, so the generator never needs more CPU than
// the machine has while the servers are busy too.
const (
	issuers      = 2
	connsPerHost = 2
)

// backlogLimit is how far behind its schedule a fixed-rate phase may
// finish before its numbers stop describing that rate.
const backlogLimit = time.Second

// newClient is the HTTP client of everything but the load itself: health
// checks, /metrics scrapes and policy.HTTPPredict.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     connsPerHost,
			MaxIdleConnsPerHost: connsPerHost,
			DisableCompression:  true,
		},
	}
}

type opKind uint8

const (
	opPredict opKind = iota
	opIngest
)

// op is one scheduled request of an open-loop phase.
type op struct {
	at   time.Duration // send time, as an offset from the phase start
	kind opKind
	ref  int // pool index (predict) or batch number (ingest)
	body []byte
}

// outcome is what happened to one op. Times are offsets from the phase
// start.
type outcome struct {
	issued bool
	sent   time.Duration
	done   time.Duration
	late   time.Duration // how late the generator woke for this op
	status int
	body   []byte
	err    error
}

func (o *outcome) ok() bool { return o.issued && o.err == nil && o.status == http.StatusOK }

// phase is one open-loop run over a schedule.
type phase struct {
	name   string
	rate   float64
	length time.Duration
	ops    []op
	outs   []outcome
	start  time.Time
}

// paths maps op kinds to endpoints.
var paths = [...]string{opPredict: "/v2/predict", opIngest: "/v2/ingest"}

// runPhase sends every op at its scheduled time from issuers goroutines.
// Latency counts from the scheduled time, so a stall charges its wait to
// every request queued behind it.
func runPhase(ctx context.Context, base string, ph *phase) {
	ph.outs = make([]outcome, len(ph.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	ph.start = time.Now()
	for w := 0; w < issuers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := newRawConn(base)
			defer rc.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ph.ops) || ctx.Err() != nil {
					return
				}
				o := &ph.ops[i]
				target := ph.start.Add(o.at)
				out := &ph.outs[i]
				if d := time.Until(target); d > 0 {
					nanosleep(d)
					out.late = time.Since(target)
				}
				out.issued = true
				out.sent = time.Since(ph.start)
				out.status, out.body, out.err = rc.post(ctx, paths[o.kind], o.body)
				out.done = time.Since(ph.start)
			}
		}()
	}
	wg.Wait()
}

// nanosleep blocks the calling thread for d. time.Sleep cannot pace the
// generator: when every goroutine is parked, the Go runtime waits in
// epoll with millisecond resolution, so a 100 µs sleep lasts about 1 ms
// and the generator runs late by that much. The nanosleep system call
// wakes within the kernel's 50 µs timer slack. main raises GOMAXPROCS so
// the issuers blocked here never starve the goroutines reading responses.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// schedule lays out n predict ops at a fixed rate over pool indices
// starting at first (wrapping around the pool).
func schedule(rate float64, length time.Duration, first int, bodies [][]byte) []op {
	n := int(rate * length.Seconds())
	ops := make([]op, n)
	for i := range ops {
		ref := (first + i) % len(bodies)
		ops[i] = op{at: time.Duration(float64(i) / rate * float64(time.Second)), kind: opPredict, ref: ref, body: bodies[ref]}
	}
	return ops
}

// latencies are the scheduled-to-done times of the completed ops of kind.
func (ph *phase) latencies(kind opKind) []time.Duration {
	var out []time.Duration
	for i := range ph.outs {
		if ph.ops[i].kind == kind && ph.outs[i].ok() {
			out = append(out, ph.outs[i].done-ph.ops[i].at)
		}
	}
	return out
}

// lateness are the generator's wake-up delays on ops it slept for.
func (ph *phase) lateness() []time.Duration {
	var out []time.Duration
	for i := range ph.outs {
		if ph.outs[i].issued && ph.outs[i].late > 0 {
			out = append(out, ph.outs[i].late)
		}
	}
	return out
}

// counts returns how many ops were issued and how many of those failed.
func (ph *phase) counts() (issued, failed int) {
	for i := range ph.outs {
		if ph.outs[i].issued {
			issued++
			if !ph.outs[i].ok() {
				failed++
			}
		}
	}
	return issued, failed
}

// backlog is how long after the schedule's end the last op completed.
func (ph *phase) backlog() time.Duration {
	var last time.Duration
	for i := range ph.outs {
		if ph.outs[i].done > last {
			last = ph.outs[i].done
		}
	}
	return last - ph.length
}

// invalid says why a fixed-rate phase did not run at its rate: an op not
// sent, or the last answer arriving more than backlogLimit after the
// schedule ended (the backlog grew). "" for a valid phase.
func (ph *phase) invalid() string {
	issued, _ := ph.counts()
	switch {
	case issued < len(ph.ops):
		return fmt.Sprintf("%d of %d ops not sent", len(ph.ops)-issued, len(ph.ops))
	case ph.backlog() > backlogLimit:
		return fmt.Sprintf("backlog of %v at the end", ph.backlog().Round(time.Millisecond))
	}
	return ""
}

// saturate is the closed-loop capacity phase: both issuers send predict
// bodies back to back, cycling through the pool from first, for length.
// The returned phase holds every op issued (its at is the send time),
// and rate counts the answers completed within length per second. With issuers connections in flight this is the highest rate the
// generator can sustain without a growing backlog.
func saturate(ctx context.Context, base string, bodies [][]byte, first int, length time.Duration) (ph *phase, rate float64) {
	ph = &phase{name: "saturate", length: length}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	ph.start = time.Now()
	for w := 0; w < issuers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := newRawConn(base)
			defer rc.close()
			var ops []op
			var outs []outcome
			for ctx.Err() == nil {
				sent := time.Since(ph.start)
				if sent >= length {
					break
				}
				ref := (first + int(next.Add(1)-1)) % len(bodies)
				out := outcome{issued: true, sent: sent}
				out.status, out.body, out.err = rc.post(ctx, paths[opPredict], bodies[ref])
				out.done = time.Since(ph.start)
				ops = append(ops, op{at: sent, kind: opPredict, ref: ref, body: bodies[ref]})
				outs = append(outs, out)
			}
			mu.Lock()
			ph.ops = append(ph.ops, ops...)
			ph.outs = append(ph.outs, outs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	n := 0
	for i := range ph.outs {
		if ph.outs[i].ok() && ph.outs[i].done <= length {
			n++
		}
	}
	return ph, float64(n) / length.Seconds()
}
