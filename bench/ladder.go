package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/policy"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/workload"
)

// layerLadder times each layer of the serving stack from outside, on the
// same warm queries, so adjacent steps subtract: the model behind
// core.Predictor, the serve handler in process, loopback HTTP into
// dramserve, the router handler in process, and loopback HTTP through
// dramrouter. It also times the off-path layers (training, artifact I/O,
// profiling, ingest, the fleet simulator and the policy harness).
func (e *env) layerLadder() error {
	qs := e.pool[:min(e.plan.ladderQs, len(e.pool))]
	bodies := e.bodies[:len(qs)]

	// core: one Predict per target on the warm queries.
	predictP50 := map[core.Target]time.Duration{}
	for _, t := range core.Targets() {
		p := e.orc.preds[t]
		var lats []time.Duration
		for r := 0; r < e.plan.ladderReps; r++ {
			for i := range qs {
				q := core.Query{Target: t, Features: e.orc.feats[qs[i].Workload], TREFP: qs[i].TREFP,
					VDD: qs[i].VDD, TempC: qs[i].TempC, Rank: core.RankDevice, CE: qs[i].CE}
				start := time.Now()
				if _, err := p.Predict(q); err != nil {
					return fmt.Errorf("core predict %s: %w", t, err)
				}
				end := time.Now()
				lats = append(lats, end.Sub(start))
				e.spans.add(e.spans.id(), 0, "core.predict_"+string(t), start, end)
			}
		}
		s := newSample(lats)
		predictP50[t] = s.at(0.5)
		e.rep.set("core.predict_"+string(t)+"_us", us(s.at(0.5)), s.n(), "Predictor.Predict median")
	}
	var inQuery time.Duration // model time of one warm query's targets
	for _, t := range e.expect[0].targets {
		inQuery += predictP50[t]
	}

	if err := e.offPath(); err != nil {
		return err
	}

	// serve: the handler in process, into a recorder.
	srv := serve.New(e.ds, serve.Options{Quick: e.ds.Build.Quick(), Seed: e.ds.Build.Seed, Workers: runtime.NumCPU()})
	defer srv.Close()
	h := srv.Handler()
	for _, l := range e.labels {
		h.ServeHTTP(httptest.NewRecorder(), postJSON("/v2/predict", e.bodies[e.firstOf(l)]))
	}
	hs, err := e.timeHandler(h, "serve.handler", bodies)
	if err != nil {
		return err
	}
	e.rep.set("serve.handler_us", us(hs.at(0.5)), hs.n(), "dramserve handler median, in process")
	hq, ht, _ := hs.tail()
	e.rep.set("serve.handler_p99_us", us(ht), hs.n(), fmt.Sprintf("p%g", 100*hq))
	e.rep.set("serve.self_us", us(hs.at(0.5)-inQuery), hs.n(), "handler minus the query's core predicts")
	allocs, err := handlerAllocs(h, bodies)
	if err != nil {
		return err
	}
	e.rep.set("serve.handler_allocs", allocs, len(bodies), "heap allocations per handled query")

	// loopback HTTP and the router hop, over a fresh two-backend topology.
	t, err := e.start(2, true, e.fixture)
	if err != nil {
		return err
	}
	defer t.stop()
	for _, p := range t.servers {
		if err := e.warm(p.url); err != nil {
			return err
		}
	}
	direct, err := e.timeHTTP("http.direct", t.servers[0].url, bodies)
	if err != nil {
		return err
	}
	e.rep.set("http.direct_us", us(direct.at(0.5)), direct.n(), "serial round trip into dramserve")
	e.rep.set("http.self_us", us(direct.at(0.5)-hs.at(0.5)), direct.n(), "direct minus handler")

	rt, err := cluster.New(cluster.Options{Backends: []string{t.servers[0].url, t.servers[1].url}})
	if err != nil {
		return err
	}
	defer rt.Close()
	ch, err := e.timeHandler(rt.Handler(), "cluster.handler", bodies)
	if err != nil {
		return err
	}
	e.rep.set("cluster.handler_us", us(ch.at(0.5)), ch.n(), "router handler median, in process, over the backends")

	before, err := e.scrape([]*proc{t.router})
	if err != nil {
		return err
	}
	routed, err := e.timeHTTP("http.routed", t.router.url, bodies)
	if err != nil {
		return err
	}
	after, err := e.scrape([]*proc{t.router})
	if err != nil {
		return err
	}
	if !e.routedCounters {
		e.clusterCounters(before, after)
	}
	e.rep.set("http.routed_us", us(routed.at(0.5)), routed.n(), "serial round trip through dramrouter")
	e.rep.set("cluster.self_us", us(routed.at(0.5)-direct.at(0.5)), routed.n(), "routed minus direct")

	// The tracing cost: serial direct requests with and without a span each.
	if err := e.traceOverhead(t.servers[0].url, bodies); err != nil {
		return err
	}

	// policy: predict calls inside a closed loop, from the workload's own
	// loop when it ran one, else from a short loop against the backend.
	if len(e.policyCalls) == 0 {
		if err := e.shortPolicyLoop(t.servers[0].url); err != nil {
			return err
		}
	}
	ps := newSample(e.policyCalls)
	pq, pt, _ := ps.tail()
	e.rep.set("policy.predict_us", us(ps.at(0.5)), ps.n(), "wrapped policy.HTTPPredict median")
	e.rep.set("policy.predict_p99_us", us(pt), ps.n(), fmt.Sprintf("p%g", 100*pq))

	// Each step contains the one below it, so the medians should rise up
	// the ladder. Timing noise between processes can still invert two close
	// steps, so an inversion is reported, not counted as a wrong answer.
	worst := time.Duration(0)
	for _, t := range e.expect[0].targets {
		worst = max(worst, predictP50[t])
	}
	steps := []struct {
		name string
		v    time.Duration
	}{{"core.predict", worst}, {"serve.handler", hs.at(0.5)}, {"http.direct", direct.at(0.5)}, {"http.routed", routed.at(0.5)}}
	order := "ordered"
	for i := 1; i < len(steps); i++ {
		if steps[i].v < steps[i-1].v {
			order = fmt.Sprintf("OUT OF ORDER: %s %v < %s %v", steps[i].name, steps[i].v, steps[i-1].name, steps[i-1].v)
		}
	}
	fmt.Fprintf(e.out, "  layer ladder medians: core.predict %v <= serve.handler %v <= http.direct %v <= http.routed %v: %s\n",
		worst, hs.at(0.5), direct.at(0.5), routed.at(0.5), order)
	return t.alive()
}

// timeHandler serves every body through h into a recorder, ladderReps
// times, timing each ServeHTTP call.
func (e *env) timeHandler(h http.Handler, name string, bodies [][]byte) (sample, error) {
	var lats []time.Duration
	for r := 0; r < e.plan.ladderReps; r++ {
		for i, b := range bodies {
			req := postJSON("/v2/predict", b)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			end := time.Now()
			e.rep.attempted++
			if rec.Code != http.StatusOK {
				return sample{}, fmt.Errorf("%s: status %d: %s", name, rec.Code, rec.Body.Bytes())
			}
			if err := e.expect[i].check(rec.Body.Bytes(), e.orc.fp); err != nil {
				e.rep.fail("%s query %d: %v", name, i, err)
			}
			lats = append(lats, end.Sub(start))
			e.spans.add(e.spans.id(), 0, name, start, end)
		}
	}
	return newSample(lats), nil
}

// postJSON builds an in-process JSON POST for a handler.
func postJSON(path string, body []byte) *http.Request {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// handlerAllocs counts heap allocations per ServeHTTP call, requests and
// recorders built beforehand.
func handlerAllocs(h http.Handler, bodies [][]byte) (float64, error) {
	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	for i, b := range bodies {
		reqs[i] = postJSON("/v2/predict", b)
		recs[i] = httptest.NewRecorder()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("allocs: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs)), nil
}

// timeHTTP sends every body serially to url, ladderReps times.
func (e *env) timeHTTP(name, url string, bodies [][]byte) (sample, error) {
	rc := newRawConn(url)
	defer rc.close()
	var lats []time.Duration
	for r := 0; r < e.plan.ladderReps; r++ {
		for i, b := range bodies {
			start := time.Now()
			status, body, err := rc.post(e.ctx, "/v2/predict", b)
			end := time.Now()
			e.rep.attempted++
			if err != nil || status != http.StatusOK {
				return sample{}, fmt.Errorf("%s: status %d, %v: %s", name, status, err, body)
			}
			if err := e.expect[i].check(body, e.orc.fp); err != nil {
				e.rep.fail("%s query %d: %v", name, i, err)
			}
			lats = append(lats, end.Sub(start))
			e.spans.add(e.spans.id(), 0, name, start, end)
		}
	}
	return newSample(lats), nil
}

// traceOverhead alternates serial direct requests recorded as spans with
// unrecorded ones and reports the difference of their medians.
func (e *env) traceOverhead(url string, bodies [][]byte) error {
	rc := newRawConn(url)
	defer rc.close()
	var on, off []time.Duration
	for r := 0; r < e.plan.ladderReps; r++ {
		for i, b := range bodies {
			start := time.Now()
			status, _, err := rc.post(e.ctx, "/v2/predict", b)
			if i%2 == 0 {
				trace := e.spans.id()
				root := e.spans.add(trace, 0, "trace.on", start, time.Now())
				e.spans.add(trace, root, "http.send", start, time.Now())
			}
			end := time.Now()
			e.rep.attempted++
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("trace overhead: status %d, %v", status, err)
			}
			if i%2 == 0 {
				on = append(on, end.Sub(start))
			} else {
				off = append(off, end.Sub(start))
			}
		}
	}
	s1, s0 := newSample(on), newSample(off)
	e.rep.set("trace.overhead_us", us(s1.at(0.5)-s0.at(0.5)), s1.n()+s0.n(), "traced minus untraced serial round trip")
	return nil
}

// shortPolicyLoop runs a 16-tick closed loop against url to time policy
// predict calls on workloads whose own load is not a policy loop.
func (e *env) shortPolicyLoop(url string) error {
	httpPredict := policy.HTTPPredict(url, "", e.client, 0)
	lats := make([]time.Duration, e.plan.servers*16)
	cfg := policy.EvalConfig{
		Fleet: fleet.Config{Servers: e.plan.servers, Seed: e.opts.seed}, Ticks: 16, Workers: issuers,
		Predict: func(q *fleet.Query) (policy.Prediction, error) {
			start := time.Now()
			p, err := httpPredict(q)
			end := time.Now()
			lats[q.Seq] = end.Sub(start)
			e.spans.add(e.spans.id(), 0, "policy.predict", start, end)
			return p, err
		},
	}
	led, err := policy.Evaluate(cfg, policy.Threshold{})
	if err != nil {
		return err
	}
	e.rep.attempted += int64(led.PredictCalls)
	if led.PredictErrors != 0 {
		e.rep.fail("short policy loop: %d predict errors", led.PredictErrors)
	}
	e.policyCalls = lats
	return nil
}

// offPath times the layers off the warm query path: training, artifact
// load, fingerprint and save, profiling, ingest and retrain through the
// handler, the fleet simulator, and the oracle-fed policy harness.
func (e *env) offPath() error {
	reps := e.plan.ladderReps
	timeIt := func(name string, f func() error) (float64, error) {
		var vs []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			end := time.Now()
			e.spans.add(e.spans.id(), 0, name, start, end)
			vs = append(vs, float64(end.Sub(start))/1e6)
		}
		return median(vs), nil
	}
	for _, t := range core.Targets() {
		v, err := timeIt("core.train_"+string(t), func() error {
			_, err := core.Train(e.ds, t, core.ModelKNN, 0, 0)
			return err
		})
		if err != nil {
			return err
		}
		e.rep.set("core.train_"+string(t)+"_ms", v, reps, "core.Train KNN, default input set")
	}
	v, err := timeIt("core.load", func() error {
		_, err := core.LoadDataset(e.fixture)
		return err
	})
	if err != nil {
		return err
	}
	e.rep.set("core.load_ms", v, reps, "core.LoadDataset of the fixture")

	grown := e.grownDataset()
	v, err = timeIt("core.fingerprint", func() error {
		_ = grown.Append(nil, nil, nil).Fingerprint()
		return nil
	})
	if err != nil {
		return err
	}
	e.rep.set("core.fingerprint_ms", v, reps, fmt.Sprintf("Fingerprint of an unmemoized copy (%d rows)", len(grown.WER)+len(grown.PUE)+len(grown.UER)))
	savePath := filepath.Join(e.work, "save.json.gz")
	v, err = timeIt("core.save", func() error { return grown.SaveAtomic(savePath) })
	if err != nil {
		return err
	}
	e.rep.set("core.save_ms", v, reps, "SaveAtomic of the post-ingest dataset")

	size := workload.SizeProfile
	if e.ds.Build.Quick() {
		size = workload.SizeTest
	}
	v, err = timeIt("profile.build", func() error {
		for _, l := range e.labels {
			spec, err := workload.FindSpec(l)
			if err != nil {
				return err
			}
			if _, err := profile.BuildAt(spec, size, e.ds.Build.Seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.rep.set("profile.build_ms", v, len(e.labels), "profile.BuildAt summed over the stream's workloads")

	if err := e.ingestLayer(); err != nil {
		return err
	}

	f, err := fleet.New(fleet.Config{Servers: e.plan.servers, Seed: e.opts.seed})
	if err != nil {
		return err
	}
	var ticks []time.Duration
	for i := 0; i < 256; i++ {
		start := time.Now()
		f.Tick()
		end := time.Now()
		ticks = append(ticks, end.Sub(start))
		e.spans.add(e.spans.id(), 0, "fleet.tick", start, end)
	}
	ts := newSample(ticks)
	e.rep.set("fleet.tick_us", us(ts.at(0.5)), ts.n(), fmt.Sprintf("Fleet.Tick at %d servers", e.plan.servers))

	const oracleTicks = 64
	v, err = timeIt("policy.oracle", func() error {
		_, err := policy.Evaluate(policy.EvalConfig{
			Fleet: fleet.Config{Servers: e.plan.servers, Seed: e.opts.seed}, Ticks: oracleTicks, Workers: issuers,
		}, policy.Threshold{})
		return err
	})
	if err != nil {
		return err
	}
	e.rep.set("policy.oracle_tick_ms", v/oracleTicks, reps*oracleTicks, "policy.Evaluate with Oracle, per tick")
	return nil
}

// grownDataset is the fixture after one retrain's worth of ingested rows,
// converted the way the serving layer converts them.
func (e *env) grownDataset() *core.Dataset {
	var wer []core.WERSample
	var pue []core.PUESample
	var uer []core.UESample
	for i := 0; i < e.plan.retrainRows; i++ {
		q := &e.pool[i%len(e.pool)]
		spec, _ := workload.FindSpec(q.Workload)
		feats := e.orc.feats[q.Workload]
		ue := 0.0
		if q.TruthUE >= 0.5 {
			ue = 1
		}
		uer = append(uer, core.UESample{Server: fmt.Sprintf("server%02d", q.Server), TREFP: q.TREFP, VDD: q.VDD,
			TempC: q.TempC, CEFeatures: profile.CEFeatures(q.CE), UE: ue})
		wer = append(wer, core.WERSample{Workload: q.Workload, Threads: spec.Threads, TREFP: q.TREFP, VDD: q.VDD,
			TempC: q.TempC, Features: feats, WER: max(q.TruthWER, core.WERFloor)})
		pue = append(pue, core.PUESample{Workload: q.Workload, Threads: spec.Threads, TREFP: q.TREFP, VDD: q.VDD,
			TempC: q.TempC, Features: feats, PUE: q.TruthPUE})
	}
	return e.ds.Append(wer, pue, uer)
}

// ingestLayer times batchRows-row /v2/ingest POSTs and two /v2/retrain
// calls, each of a fixed retrainRows buffer, through an in-process,
// ingest-enabled handler whose artifact is a scratch copy of the fixture.
func (e *env) ingestLayer() error {
	artifact := filepath.Join(e.work, "ingest-artifact.json.gz")
	if err := copyFile(artifact, e.fixture); err != nil {
		return err
	}
	ds, err := core.LoadDataset(artifact)
	if err != nil {
		return err
	}
	srv := serve.New(ds, serve.Options{Quick: ds.Build.Quick(), Seed: ds.Build.Seed, Workers: runtime.NumCPU(),
		ArtifactPath: artifact, Ingest: &ingest.Config{Capacity: 4 * e.plan.retrainRows}})
	defer srv.Close()
	h := srv.Handler()
	call := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, postJSON(path, body))
		return rec.Code, rec.Body.Bytes()
	}
	var ingests []time.Duration
	var retrains []float64
	batch := 0
	for cycle := 0; cycle < 2; cycle++ {
		for rows := 0; rows < e.plan.retrainRows; rows += e.plan.batchRows {
			body, err := e.ingestBody(batch)
			if err != nil {
				return err
			}
			batch++
			start := time.Now()
			code, resp := call("/v2/ingest", body)
			end := time.Now()
			e.rep.attempted++
			if code != http.StatusOK {
				return fmt.Errorf("ingest: status %d: %s", code, resp)
			}
			ingests = append(ingests, end.Sub(start))
			e.spans.add(e.spans.id(), 0, "serve.ingest", start, end)
		}
		// The pipeline consumes asynchronously; time the retrain only once
		// the whole buffer is in.
		deadline := time.Now().Add(10 * time.Second)
		for {
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			m := parseMetrics(rec.Body.String())
			if int(m["dramserve_ingest_buffered_rows"]) >= e.plan.retrainRows {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ingest: buffer never reached %d rows:\n%s", e.plan.retrainRows, rec.Body.String())
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		code, resp := call("/v2/retrain", nil)
		end := time.Now()
		e.rep.attempted++
		if code != http.StatusOK || !strings.Contains(string(resp), `"swapped":true`) {
			return fmt.Errorf("retrain: status %d: %s", code, resp)
		}
		retrains = append(retrains, float64(end.Sub(start))/1e6)
		e.spans.add(e.spans.id(), 0, "serve.retrain", start, end)
	}
	is := newSample(ingests)
	e.rep.set("serve.ingest_us", us(is.at(0.5)), is.n(), fmt.Sprintf("%d-row /v2/ingest through the handler", e.plan.batchRows))
	e.rep.set("serve.retrain_ms", median(retrains), len(retrains), fmt.Sprintf("/v2/retrain of %d buffered rows through the handler", e.plan.retrainRows))
	return nil
}
