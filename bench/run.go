package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// workloads maps each workload name to its runner. README.md says why each
// one exists.
var workloads = map[string]func(*env) error{
	"steady":    (*env).runSteady,
	"routed":    (*env).runRouted,
	"telemetry": (*env).runTelemetry,
	"policy":    (*env).runPolicy,
}

// plan fixes the shape of one run. planFor derives it from -seconds; the
// smoke test scales it down.
type plan struct {
	phase       time.Duration // length of each fixed-rate phase
	rates       [2]float64    // the base-load and loaded fixed rates, qps
	saturate    time.Duration // length of the closed-loop capacity phase
	setupCycles int           // set-ups per run; setup_s is their median
	servers     int           // fleet size
	poolTicks   int           // fleet ticks in the query pool
	ticks       int           // policy loop length
	batchRows   int           // rows per ingest POST
	ingestEvery time.Duration
	retrainRows int // dramserve -retrain-rows
	ladderReps  int // passes over the warm queries per ladder step, and repetitions of each off-path timing
	ladderQs    int // warm queries per ladder step
}

// planFor is the plan of a full run: two fixed-rate phases of seconds/2
// each; everything else is fixed.
func planFor(seconds int) plan {
	return plan{
		phase:       time.Duration(seconds) * time.Second / 2,
		rates:       [2]float64{500, 2000},
		saturate:    5 * time.Second,
		setupCycles: 3,
		servers:     64,
		poolTicks:   64,
		ticks:       1024,
		batchRows:   32,
		ingestEvery: 250 * time.Millisecond,
		retrainRows: 1024,
		ladderReps:  4,
		ladderQs:    256,
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	profile  bool
	out      string // directory for the result file (compare input)
	spans    string // span JSONL path
	root     string // repository checkout
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "steady", "workload: steady, routed, telemetry or policy")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (seed 2 is the hold-out for claims)")
	fs.IntVar(&o.seconds, "seconds", 20, "measured time of the two fixed-rate phases together (at least 10)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	fs.BoolVar(&o.profile, "profile", false, "capture CPU and alloc profiles of each server during the loaded phase")
	fs.StringVar(&o.out, "out", "", "also write the result to DIR/<workload>-seed<n>[-trace].json")
	fs.StringVar(&o.spans, "spans", "", "span JSONL path of a traced run (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	fs.StringVar(&o.root, "root", ".", "repository checkout to build and measure")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have steady, routed, telemetry, policy)", o.workload)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	if o.seconds < 10 {
		return o, fmt.Errorf("-seconds %d: want at least 10", o.seconds)
	}
	o.trace = trace == 1
	return o, nil
}

// env is the state of one run.
type env struct {
	ctx     context.Context
	opts    options
	plan    plan
	root    string
	build   string // .bench_build in the checkout
	work    string // this run's scratch directory
	bins    binaries
	fixture string
	ds      *core.Dataset
	orc     *oracle
	pool    []fleet.Query
	labels  []string // distinct workload labels, first-occurrence order
	withCE  bool     // requests carry the query's CE window
	bodies  [][]byte
	expect  []expected
	client  *http.Client
	rep     *report
	spans   *spanLog
	out     io.Writer
	started []*proc
	// layer counters measured by the workload itself, reused by the ladder
	routedCounters bool
	policyCalls    []time.Duration
}

// runBench executes one run and prints its report. The last line of
// standard output is the result JSON; the exit code is 0 only for a
// correct run.
func runBench(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	res, err := runWith(ctx, opts, planFor(opts.seconds), stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if opts.out != "" {
		if err := writeResultFile(opts, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWith performs the run under an explicit plan.
func runWith(ctx context.Context, opts options, pl plan, stdout, stderr io.Writer) (result, error) {
	root, err := filepath.Abs(opts.root)
	if err != nil {
		return result{}, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return result{}, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	e := &env{
		ctx: ctx, opts: opts, plan: pl, root: root,
		build:  filepath.Join(root, ".bench_build"),
		client: newClient(),
		rep:    newReport(),
		out:    stdout,
		withCE: opts.workload == "telemetry" || opts.workload == "policy",
	}
	if opts.trace {
		e.spans = newSpanLog()
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return result{}, err
	}
	if e.work, err = os.MkdirTemp(e.build, "run-"); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(e.work)
	defer e.stopAll()

	if err := e.prepare(); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d pooled queries over %d workloads, fixture %s\n",
		opts.workload, opts.seed, len(e.pool), len(e.labels), e.orc.fp[:12])
	if err := workloads[opts.workload](e); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if opts.trace {
		if err := e.layerLadder(); err != nil {
			return result{}, err
		}
		defs = perLayer
		path := opts.spans
		if path == "" {
			path = filepath.Join(e.build, "spans", fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed))
		}
		if err := e.spans.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(e.spans.spans), path)
	}
	for _, p := range e.rep.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d\n", e.rep.attempted, e.rep.failed)
	e.rep.printTable(stdout, defs)
	return e.rep.result(defs)
}

// prepare builds the programs and the fixture, then derives the inputs
// from the seed: the query pool, its request bodies and the reference
// answers.
func (e *env) prepare() error {
	var err error
	if e.bins, err = buildBinaries(e.ctx, e.root, filepath.Join(e.build, "bin")); err != nil {
		return err
	}
	if e.fixture, err = buildFixture(e.ctx, e.bins.train, e.build); err != nil {
		return err
	}
	if e.ds, err = core.LoadDataset(e.fixture); err != nil {
		return err
	}
	f, err := fleet.New(fleet.Config{Servers: e.plan.servers, Seed: e.opts.seed})
	if err != nil {
		return err
	}
	e.pool = f.Take(e.plan.servers * e.plan.poolTicks)
	seen := map[string]bool{}
	for i := range e.pool {
		if l := e.pool[i].Workload; !seen[l] {
			seen[l] = true
			e.labels = append(e.labels, l)
		}
	}
	if e.orc, err = newOracle(e.ds, e.labels); err != nil {
		return err
	}
	e.bodies = make([][]byte, len(e.pool))
	e.expect = make([]expected, len(e.pool))
	for i := range e.pool {
		if e.bodies[i], err = predictBody(&e.pool[i], e.withCE); err != nil {
			return err
		}
		if e.expect[i], err = e.orc.answer(&e.pool[i], e.withCE); err != nil {
			return err
		}
	}
	return nil
}

// predictBody encodes one /v2/predict request with the default target
// selection and model.
func predictBody(q *fleet.Query, withCE bool) ([]byte, error) {
	req := serve.PredictRequestV2{Workload: q.Workload, TREFP: q.TREFP, TempC: q.TempC, VDD: q.VDD}
	if withCE {
		req.CE = q.CE
	}
	return json.Marshal(req)
}

// ingestRow is the ground-truth observation of one query, the row a fleet
// agent reports.
func ingestRow(q *fleet.Query) ingest.Row {
	ue := 0.0
	if q.TruthUE >= 0.5 {
		ue = 1
	}
	wer, pue := q.TruthWER, q.TruthPUE
	return ingest.Row{
		Server: fmt.Sprintf("server%02d", q.Server), Workload: q.Workload,
		TREFP: q.TREFP, VDD: q.VDD, TempC: q.TempC, CE: q.CE,
		UE: &ue, WER: &wer, PUE: &pue,
	}
}

// ingestBody encodes batch b of the ingest stream: the next batchRows pool
// queries' observations.
func (e *env) ingestBody(b int) ([]byte, error) {
	rows := make([]ingest.Row, e.plan.batchRows)
	for i := range rows {
		rows[i] = ingestRow(&e.pool[(b*e.plan.batchRows+i)%len(e.pool)])
	}
	return json.Marshal(serve.IngestRequestV2{Rows: rows})
}

// topology is the set of server processes one workload measures.
type topology struct {
	servers []*proc
	router  *proc
}

func (t *topology) url() string {
	if t.router != nil {
		return t.router.url
	}
	return t.servers[0].url
}

func (t *topology) procs() []*proc {
	ps := append([]*proc(nil), t.servers...)
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

func (t *topology) stop() {
	for _, p := range t.procs() {
		p.stop()
	}
}

// rssMB sums the peak resident set of the topology's processes.
func (t *topology) rssMB() (float64, error) {
	total := 0.0
	for _, p := range t.procs() {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// cpuSeconds sums the user and system CPU time of the topology's
// processes.
func (t *topology) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range t.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func (t *topology) alive() error {
	for _, p := range t.procs() {
		if err := p.exitedEarly(); err != nil {
			return err
		}
	}
	return nil
}

// start spawns backends dramserve processes on the artifact (extra flags
// appended), plus a dramrouter in front when routed, and waits until all
// are healthy.
func (e *env) start(backends int, routed bool, artifact string, extra ...string) (*topology, error) {
	t := &topology{}
	for i := 0; i < backends; i++ {
		args := append([]string{"-load", artifact}, extra...)
		p, err := startProc(fmt.Sprintf("dramserve-%d", i), e.bins.serve, e.opts.profile, args...)
		if err != nil {
			return t, err
		}
		e.started = append(e.started, p)
		t.servers = append(t.servers, p)
	}
	for _, p := range t.servers {
		if err := p.waitHealthy(e.client, 30*time.Second); err != nil {
			return t, err
		}
	}
	if routed {
		urls := make([]string, len(t.servers))
		for i, p := range t.servers {
			urls[i] = p.url
		}
		p, err := startProc("dramrouter", e.bins.router, e.opts.profile, "-backends", strings.Join(urls, ","))
		if err != nil {
			return t, err
		}
		e.started = append(e.started, p)
		t.router = p
		if err := p.waitHealthy(e.client, 30*time.Second); err != nil {
			return t, err
		}
	}
	return t, nil
}

func (e *env) stopAll() {
	for _, p := range e.started {
		p.stop()
	}
}

// setUp starts the workload's topology setupCycles times, each time from
// process spawn to the end of warm-up, and keeps the last one running.
// setup_s is the median. Every cycle starts from a fresh copy of the
// artifact, because ingest-enabled servers rewrite theirs.
func (e *env) setUp(backends int, routed bool, extra ...string) (*topology, error) {
	var times []float64
	var t *topology
	for c := 0; c < e.plan.setupCycles; c++ {
		if t != nil {
			t.stop()
		}
		artifact := filepath.Join(e.work, fmt.Sprintf("artifact-%d.json.gz", c))
		if err := copyFile(artifact, e.fixture); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if t, err = e.start(backends, routed, artifact, extra...); err != nil {
			return nil, err
		}
		if err := e.warm(t.url()); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	e.rep.set("setup_s", median(times), len(times), "median set-up, spawn to end of warm-up")
	return t, nil
}

// warm sends one query per stream workload label, so every profile and
// model the phases need is filled before timing starts.
func (e *env) warm(url string) error {
	rc := newRawConn(url)
	defer rc.close()
	for _, l := range e.labels {
		i := e.firstOf(l)
		e.rep.attempted++
		status, body, err := rc.post(e.ctx, "/v2/predict", e.bodies[i])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d, %v: %s", l, status, err, body)
		}
		if err := e.expect[i].check(body, e.orc.fp); err != nil {
			e.rep.fail("warm-up %s: %v", l, err)
		}
	}
	return nil
}

func (e *env) firstOf(label string) int {
	for i := range e.pool {
		if e.pool[i].Workload == label {
			return i
		}
	}
	return -1
}

// fixedPhase runs one fixed-rate open-loop phase of predict queries,
// continuing through the pool from *next.
func (e *env) fixedPhase(url, name string, rate float64, length time.Duration, next *int) *phase {
	ph := &phase{name: name, rate: rate, length: length, ops: schedule(rate, length, *next, e.bodies)}
	*next += len(ph.ops)
	runPhase(e.ctx, url, ph)
	e.spans.addPhase(ph)
	return ph
}

// verify checks every issued op of a phase: transport and status first,
// then each predict answer against the reference, bit for bit, carrying
// the fixture's fingerprint.
func (e *env) verify(ph *phase) {
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
		if ph.ops[i].kind != opPredict {
			continue
		}
		if err := e.expect[ph.ops[i].ref].check(o.body, e.orc.fp); err != nil {
			e.rep.fail("%s query %d: %v", ph.name, ph.ops[i].ref, err)
		}
		o.body = nil
	}
}

// setLatency reports a fixed-rate phase's predict latency, and how
// closely the generator kept to the schedule.
func (e *env) setLatency(prefix string, ph *phase) {
	e.setTiming(prefix, ph.name+" predict", ph.latencies(opPredict))
	late := newSample(ph.lateness())
	lq, lt, _ := late.tail()
	valid := ph.invalid()
	if valid == "" && ph.rate <= e.plan.rates[0] && lt > time.Millisecond {
		valid = "generator over 1 ms late"
	}
	if valid != "" {
		valid = " INVALID: " + valid
	}
	fmt.Fprintf(e.out, "  %s: %d sent at %.0f/s, generator late p%g %.3f ms (n=%d)%s\n",
		ph.name, len(ph.ops), ph.rate, 100*lq, ms(lt), late.n(), valid)
}

// setTiming reports a median as prefix+"p50_ms" and, for information,
// the highest percentile with ten samples beyond it as prefix+"p99_ms".
// Only the median is an end-to-end metric: on a shared two-core machine
// the tail moves by more than any usable bound from run to run (README.md
// has the measured spreads).
func (e *env) setTiming(prefix, what string, ds []time.Duration) {
	s := newSample(ds)
	e.rep.set(prefix+"p50_ms", ms(s.at(0.5)), s.n(), what+" median")
	if q, v, ok := s.tail(); ok {
		e.rep.set(prefix+"p99_ms", ms(v), s.n(), fmt.Sprintf("%s p%g (not gated)", what, 100*q))
	}
}

// setCPU reports the servers' CPU time per answered predict.
func (e *env) setCPU(seconds float64, answered int) {
	e.rep.set("cpu_us_per_query", 1e6*seconds/float64(max(1, answered)), answered, "server CPU time (user+system) per answered predict")
}

// snapshot reads the topology's /metrics counters and CPU time together.
func (e *env) snapshot(t *topology) (counters, float64, error) {
	c, err := e.scrape(t.procs())
	if err != nil {
		return nil, 0, err
	}
	cpu, err := t.cpuSeconds()
	return c, cpu, err
}

// metricsOf scrapes a server's /metrics into series → value.
func (e *env) metricsOf(url string) (map[string]float64, error) {
	resp, err := e.client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(data)), nil
}

// parseMetrics reads the Prometheus text format: one "series value" pair
// per line, comments skipped.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// counters is a /metrics scrape: series → value, summed over servers.
type counters map[string]float64

// scrape reads and sums the /metrics of every process in ps.
func (e *env) scrape(ps []*proc) (counters, error) {
	total := counters{}
	for _, p := range ps {
		m, err := e.metricsOf(p.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// delta is after − before for the series that start with prefix.
func delta(before, after counters, prefix string) float64 {
	sum := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			sum += v - before[k]
		}
	}
	return sum
}

// batchSize reports the queries carried per micro-batch flush over an
// interval.
func (e *env) batchSize(before, after counters) {
	batches := delta(before, after, "dramserve_predict_batches_total")
	queries := delta(before, after, "dramserve_predict_batched_queries_total")
	e.rep.set("serve.batch_size", queries/math.Max(1, batches), int(batches), "batched queries per micro-batch flush")
}

// missRatio reports the model registry's misses per lookup over an
// interval.
func (e *env) missRatio(before, after counters) {
	hits := delta(before, after, "dramserve_model_registry_hits_total")
	misses := delta(before, after, "dramserve_model_registry_misses_total")
	e.rep.set("serve.registry_miss_ratio", misses/math.Max(1, hits+misses), int(hits+misses), "model registry misses per lookup")
}

// clusterCounters reports the routing-layer ratios over an interval.
func (e *env) clusterCounters(before, after counters) {
	routed := delta(before, after, `dramrouter_requests_total{endpoint="/v2/predict",code="200"}`)
	if routed == 0 {
		return
	}
	sub := delta(before, after, "dramrouter_backend_requests_total")
	e.rep.set("cluster.fanout", sub/routed, int(routed), "backend requests per routed query")
	e.rep.set("cluster.hedges_per_1k", 1000*delta(before, after, "dramrouter_hedges_total")/routed, int(routed), "")
	e.rep.set("cluster.retries_per_1k", 1000*delta(before, after, "dramrouter_retries_total")/routed, int(routed), "")
}

// writeResultFile stores the result with its run identity for compare.
func writeResultFile(o options, res result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if o.trace {
		name += "-trace"
	}
	data, err := json.Marshal(resultFile{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, name+".json"), data, 0o644)
}

// resultFile is one stored run, the unit compare reads.
type resultFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}
