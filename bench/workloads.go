package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/serve"
)

// runSteady drives the open-loop fleet stream into one dramserve.
func (e *env) runSteady() error { return e.runStream(1, false) }

// runRouted drives the identical stream through dramrouter in front of two
// dramserve backends.
func (e *env) runRouted() error { return e.runStream(2, true) }

// runStream is steady and routed: set-up, the two fixed-rate phases, then
// (untraced) the closed-loop capacity phase.
func (e *env) runStream(backends int, routed bool) error {
	t, err := e.setUp(backends, routed)
	if err != nil {
		return err
	}
	url := t.url()
	next := 0
	before, cpu0, err := e.snapshot(t)
	if err != nil {
		return err
	}
	lo := e.fixedPhase(url, "r500", e.plan.rates[0], e.plan.phase, &next)
	mid, _, err := e.snapshot(t)
	if err != nil {
		return err
	}
	stop := e.startProfiles(t, "r2000", e.plan.phase)
	hi := e.fixedPhase(url, "r2000", e.plan.rates[1], e.plan.phase, &next)
	if err := stop(); err != nil {
		return err
	}
	after, cpu1, err := e.snapshot(t)
	if err != nil {
		return err
	}
	e.setLatency("", lo)
	e.setLatency("load_", hi)
	e.setCPU(cpu1-cpu0, len(lo.latencies(opPredict))+len(hi.latencies(opPredict)))
	e.verify(lo)
	e.verify(hi)
	e.batchSize(mid, after)
	e.missRatio(before, after)
	if routed {
		e.clusterCounters(before, after)
		e.routedCounters = true
	}

	if !e.opts.trace {
		sat, rate := saturate(e.ctx, url, e.bodies, next, e.plan.saturate)
		e.verify(sat)
		e.rep.set("rate_per_s", rate, len(sat.ops), fmt.Sprintf("answers per second over %v with both issuers sending back to back", e.plan.saturate))
	}
	return e.setRSS(t)
}

// setRSS reports the summed peak resident set of the topology, after
// checking that every process is still alive.
func (e *env) setRSS(t *topology) error {
	if err := t.alive(); err != nil {
		return err
	}
	rss, err := t.rssMB()
	if err != nil {
		return err
	}
	e.rep.set("rss_mb", rss, len(t.procs()), "summed peak RSS (VmHWM) of the server processes")
	return nil
}

// runTelemetry drives the stream with CE windows attached into one
// ingest-enabled dramserve, while ground-truth rows stream into
// /v2/ingest at a fixed rate and trigger row-count retrains.
func (e *env) runTelemetry() error {
	t, err := e.setUp(1, false, "-ingest", "-retrain-rows", fmt.Sprint(e.plan.retrainRows))
	if err != nil {
		return err
	}
	url := t.url()
	before, cpu0, err := e.snapshot(t)
	if err != nil {
		return err
	}
	next, batch := 0, 0
	var phases []*phase
	for i, rate := range e.plan.rates {
		name := fmt.Sprintf("r%.0f", rate)
		ops := schedule(rate, e.plan.phase, next, e.bodies)
		next += len(ops)
		for at := time.Duration(0); at < e.plan.phase; at += e.plan.ingestEvery {
			body, err := e.ingestBody(batch)
			if err != nil {
				return err
			}
			ops = append(ops, op{at: at, kind: opIngest, ref: batch, body: body})
			batch++
		}
		sort.SliceStable(ops, func(a, b int) bool { return ops[a].at < ops[b].at })
		ph := &phase{name: name, rate: rate, length: e.plan.phase, ops: ops}
		var stop func() error
		if i == 1 {
			stop = e.startProfiles(t, name, e.plan.phase)
		}
		runPhase(e.ctx, url, ph)
		if stop != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		e.spans.addPhase(ph)
		phases = append(phases, ph)
	}
	_, cpu1, err := e.snapshot(t)
	if err != nil {
		return err
	}
	planned := batch * e.plan.batchRows / e.plan.retrainRows
	after, err := e.waitRetrains(t, before, planned)
	if err != nil {
		return err
	}
	e.setLatency("", phases[0])
	e.setLatency("load_", phases[1])
	e.setCPU(cpu1-cpu0, len(phases[0].latencies(opPredict))+len(phases[1].latencies(opPredict)))
	e.batchSize(before, after)
	e.missRatio(before, after)
	// One answer after the last retrain, so the final generation is seen
	// even when its retrain finished after the phases ended.
	rc := newRawConn(url)
	sent := time.Now()
	status, body, err := rc.post(e.ctx, paths[opPredict], e.bodies[0])
	probe := answer{sent: sent, done: time.Now()}
	rc.close()
	e.rep.attempted++
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("probe after the retrains: status %d, %v: %s", status, err, body)
	}
	var resp serve.PredictResponseV2
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("probe after the retrains: %w", err)
	}
	probe.gen, probe.fp = resp.Generation, resp.Fingerprint
	e.verifyTelemetry(phases, planned, probe)
	return e.setRSS(t)
}

// waitRetrains waits until the ingest queue has drained and the planned
// number of retrains has finished, then checks that no more ran.
func (e *env) waitRetrains(t *topology, before counters, planned int) (counters, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		after, err := e.scrape(t.procs())
		if err != nil {
			return nil, err
		}
		done := int(delta(before, after, "dramserve_retrain_total"))
		if after["dramserve_ingest_queue_depth"] == 0 && done >= planned {
			if done != planned {
				e.rep.fail("ingest: %d retrains, planned %d", done, planned)
			}
			if f := delta(before, after, "dramserve_retrain_failures_total"); f > 0 {
				e.rep.fail("ingest: %.0f failed retrains", f)
			}
			accepted := delta(before, after, "dramserve_ingest_accepted_total")
			dropped := delta(before, after, "dramserve_ingest_dropped_total")
			fmt.Fprintf(e.out, "  ingest: %d retrains (planned %d), %.0f rows accepted, %.0f refused\n",
				done, planned, accepted, dropped)
			return after, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ingest: %d of %d planned retrains after 30 s", done, planned)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// answer is one telemetry predict answer, in absolute time.
type answer struct {
	sent, done time.Time
	gen        int64
	fp         string
}

// verifyTelemetry checks the telemetry phases: answers on the fixture's
// fingerprint are bit-exact; a request sent after an answer completed
// never sees an older generation; the generations seen are exactly
// 1 + planned, each with one fingerprint. It reports rate_per_s from the
// retrain time: from the ingest POST that crosses the row trigger to the
// first answer carrying the new generation.
func (e *env) verifyTelemetry(phases []*phase, planned int, probe answer) {
	var answers []answer
	var crossings []time.Time
	rows := 0
	for _, ph := range phases {
		for i := range ph.outs {
			o := &ph.outs[i]
			if !o.issued {
				continue
			}
			e.rep.attempted++
			if !o.ok() {
				e.rep.fail("%s op %d: status %d, %v: %.200s", ph.name, i, o.status, o.err, o.body)
				continue
			}
			if ph.ops[i].kind == opIngest {
				before := rows / e.plan.retrainRows
				rows += e.plan.batchRows
				if rows/e.plan.retrainRows > before {
					crossings = append(crossings, ph.start.Add(o.sent))
				}
				continue
			}
			var resp serve.PredictResponseV2
			if err := json.Unmarshal(o.body, &resp); err != nil {
				e.rep.fail("%s op %d: %v", ph.name, i, err)
				continue
			}
			if resp.Fingerprint == e.orc.fp {
				exp := e.expect[ph.ops[i].ref]
				if err := exp.checkItem(&resp.PredictItemV2); err != nil {
					e.rep.fail("%s query %d: %v", ph.name, ph.ops[i].ref, err)
				}
			}
			answers = append(answers, answer{ph.start.Add(o.sent), ph.start.Add(o.done), resp.Generation, resp.Fingerprint})
			o.body = nil
		}
	}
	answers = append(answers, probe)
	fps := map[int64]string{}
	for _, a := range answers {
		if have, ok := fps[a.gen]; ok && have != a.fp {
			e.rep.fail("generation %d answered with fingerprints %s and %s", a.gen, have, a.fp)
		}
		fps[a.gen] = a.fp
	}
	if len(fps) != planned+1 {
		e.rep.fail("%d generations answered, want %d (1 + %d retrains)", len(fps), planned+1, planned)
	}
	if fps[1] != e.orc.fp {
		e.rep.fail("generation 1 answered fingerprint %q, want the fixture's %s", fps[1], e.orc.fp)
	}
	byDone := append([]answer(nil), answers...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].done.Before(byDone[b].done) })
	bySent := append([]answer(nil), answers...)
	sort.Slice(bySent, func(a, b int) bool { return bySent[a].sent.Before(bySent[b].sent) })
	var seen int64
	j := 0
	for _, a := range bySent {
		for j < len(byDone) && byDone[j].done.Before(a.sent) {
			seen = max(seen, byDone[j].gen)
			j++
		}
		if a.gen < seen {
			e.rep.fail("answer sent at %v carries generation %d after generation %d was served", a.sent, a.gen, seen)
			break
		}
	}
	var retrains []float64
	for k, at := range crossings {
		for _, a := range byDone {
			if a.gen >= int64(k+2) {
				retrains = append(retrains, a.done.Sub(at).Seconds())
				break
			}
		}
	}
	if len(retrains) == 0 {
		e.rep.fail("no retrain was observed in the answers")
		return
	}
	m := median(retrains)
	e.rep.set("rate_per_s", float64(e.plan.retrainRows)/m, len(retrains),
		fmt.Sprintf("ingested rows made servable per second (retrain_s median %.3f s)", m))
}

// runPolicy runs the threshold policy in closed loop against one dramserve
// through a wrapped policy.HTTPPredict, then replays it in process and
// compares the ledgers.
func (e *env) runPolicy() error {
	t, err := e.setUp(1, false)
	if err != nil {
		return err
	}
	cfg := policy.EvalConfig{
		Fleet:   fleet.Config{Servers: e.plan.servers, Seed: e.opts.seed},
		Ticks:   e.plan.ticks,
		Workers: issuers,
	}
	type call struct {
		start, end time.Time
		err        error
	}
	calls := make([]call, e.plan.servers*e.plan.ticks)
	httpPredict := policy.HTTPPredict(t.url(), "", e.client, 0)
	cfg.Predict = func(q *fleet.Query) (policy.Prediction, error) {
		start := time.Now()
		p, err := httpPredict(q)
		calls[q.Seq] = call{start, time.Now(), err}
		return p, err
	}
	before, cpu0, err := e.snapshot(t)
	if err != nil {
		return err
	}
	stop := e.startProfiles(t, "loop", 0)
	start := time.Now()
	led, err := policy.Evaluate(cfg, policy.Threshold{})
	wall := time.Since(start)
	if err := stop(); err != nil {
		return err
	}
	if err != nil {
		return err
	}
	after, cpu1, err := e.snapshot(t)
	if err != nil {
		return err
	}
	e.batchSize(before, after)
	e.missRatio(before, after)
	e.setCPU(cpu1-cpu0, led.PredictCalls)

	var ticks, lats []time.Duration
	for k := 0; k < e.plan.ticks; k++ {
		tick := calls[k*e.plan.servers : (k+1)*e.plan.servers]
		first, last := tick[0].start, tick[0].end
		for _, c := range tick {
			if c.start.Before(first) {
				first = c.start
			}
			if c.end.After(last) {
				last = c.end
			}
			lats = append(lats, c.end.Sub(c.start))
			e.rep.attempted++
			if c.err != nil {
				e.rep.fail("policy predict: %v", c.err)
			}
		}
		ticks = append(ticks, last.Sub(first))
		if e.spans != nil {
			trace := e.spans.id()
			root := e.spans.add(trace, 0, "policy.tick", first, last)
			for _, c := range tick {
				e.spans.add(trace, root, "policy.predict", c.start, c.end)
			}
		}
	}
	e.policyCalls = lats
	e.setTiming("", "control tick", ticks)
	e.setTiming("load_", "predict call", lats)
	e.rep.set("rate_per_s", float64(len(lats))/wall.Seconds(), len(lats), "predict calls per second of the loop")

	if led.PredictErrors != 0 {
		e.rep.fail("policy ledger: %d predict errors", led.PredictErrors)
	}
	cfg.Predict = e.orc.predictFn()
	want, err := policy.Evaluate(cfg, policy.Threshold{})
	if err != nil {
		return err
	}
	if led.Checksum() != want.Checksum() {
		e.rep.fail("policy ledger checksum %016x over HTTP, %016x in process:\n%s%s",
			led.Checksum(), want.Checksum(), led.Render(), want.Render())
	}
	fmt.Fprintf(e.out, "  policy: %d ticks in %.2f s, ledger checksum %016x, %d actions\n",
		e.plan.ticks, wall.Seconds(), led.Checksum(), led.Retunes+led.Offlines+led.Migrations)
	return e.setRSS(t)
}
