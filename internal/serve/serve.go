// Package serve is the deployment layer of the reproduction: a long-running
// prediction service over the trained workload-aware DRAM error model. The
// paper's deliverable is a model that answers WER/PUE queries "within
// 300 ms" from a periodically-updated artifact (the DFault model); this
// package serves exactly that from a saved campaign dataset
// (core.LoadDataset) over an HTTP JSON API:
//
//	POST /v2/predict   typed targets, structured errors (see API.md)
//	GET  /v2/stats     per-(target, kind, input set) serving counters
//	POST /v1/predict   the legacy surface: always computes both targets
//	GET  /v1/workloads the servable benchmark catalog
//	GET  /v1/models    model kinds, input sets, targets, trained entries
//	POST /v1/reload    swap in a refreshed dataset artifact in place
//	GET  /healthz      liveness, dataset shape, serving generation
//	GET  /metrics      request/cache/reload counters and histograms
//
// Both predict surfaces run the same resolve → model → predict path over
// the unified core.Predictor API; /v1 is a thin adapter that always
// requests every target and renders the legacy wire format (pinned
// byte-for-byte by golden tests), while /v2 takes a per-query target
// selection — a PUE-only query never trains or waits for a WER model,
// because the model registry is keyed on the full (target, kind, input
// set) triple — and reports failures as machine-readable
// {code, field, message} errors. Method and content-type enforcement is
// uniform across every endpoint: wrong method is 405 with Allow set,
// non-JSON POST content is 415.
//
// Two caches keep the warm path far under the 300 ms budget while the cold
// path stays correct under concurrency:
//
//   - a model registry trains each (target, kind, input set) predictor
//     once through the core.Train factory, singleflight-style: concurrent
//     first requests block on one fit, and a failed fit is never cached —
//     the entry clears so the next request retries instead of inheriting a
//     transient error;
//   - a profile cache keyed by (workload, size, seed) makes repeat queries
//     skip the expensive profiling pass (same non-sticky error handling).
//
// A warm query then calls each target's core.Predictor.Predict directly on
// the request goroutine.
//
// The paper's model is "retrained periodically" from fresh characterization
// data, so the dataset and everything derived from it (registry, profile
// cache) live in an immutable generation behind an atomic pointer: Reload
// builds a new generation from a refreshed artifact and swaps it in while
// in-flight queries finish on the generation they started with (see
// generation.go). A content fingerprint persisted in the artifact makes
// reloading an unchanged artifact a no-op.
//
// Shutdown is graceful: Close cancels the server's context (threaded into
// every engine dispatch), releases requests waiting on another request's
// cold fill, and makes new requests fail fast before starting a cold
// profile build or model fit.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/workload"
)

// maxBatchBody bounds the number of queries in one request body.
const maxBatchBody = 1024

// Options configures a Server.
type Options struct {
	// Quick profiles query workloads at test size instead of SizeProfile.
	// It must match how the dataset was built (dramtrain's -quick), so
	// query-time features are commensurate with the training rows.
	Quick bool
	// Seed keys the profiling passes.
	Seed uint64
	// Workers bounds the engine parallelism of training, ingest retrains
	// and a batch body's profile resolution; 0 means GOMAXPROCS.
	Workers int
	// ArtifactPath, when set, is the dataset artifact backing the server;
	// POST /v1/reload with an empty body (and cmd/dramserve's SIGHUP and
	// -reload-interval) reload from it.
	ArtifactPath string
	// Context, when set, is the base context; its cancellation stops the
	// server like Close does.
	Context context.Context
	// Ingest, when set, enables the streaming-ingest pipeline: POST
	// /v2/ingest accepts telemetry rows into a bounded queue, a drift
	// detector scores them against the serving artifact's training
	// distribution, and drift/row-count triggers (or POST /v2/retrain)
	// rebuild the dataset and swap a new generation in place. Nil leaves
	// the ingest endpoints registered but answering ingest_disabled.
	Ingest *ingest.Config
}

// Server answers prediction queries from the current serving generation: a
// loaded campaign dataset plus the models and profiles derived from it.
// Reload swaps generations atomically; see generation.go.
type Server struct {
	workers int
	// optSize/optSeed are the startup profiling settings, used for
	// datasets that do not record their own build settings.
	optSize workload.Size
	optSeed uint64

	metrics *metrics

	// gen is the current serving generation. reloadMu serializes swaps
	// (the pointer itself is safe to read lock-free).
	gen          atomic.Pointer[generation]
	reloadMu     sync.Mutex
	artifactPath string

	// ingest is the streaming-ingest pipeline, nil when the server runs
	// without one; lastRetrain records the most recent ingest-driven swap
	// for POST /v2/retrain responses.
	ingest      *ingest.Pipeline
	lastRetrain atomic.Pointer[ReloadResult]

	ctx       context.Context
	cancel    context.CancelFunc
	stop      chan struct{}
	closeOnce sync.Once
	start     time.Time

	// Fill seams, overridable in tests to inject failures: production
	// wiring is core.Train / profile.BuildAt.
	train        func(*core.Dataset, core.Target, core.ModelKind, core.InputSet, int) (core.Predictor, error)
	buildProfile func(workload.Spec, workload.Size, uint64) (*profile.Result, error)
}

// New builds a Server over the dataset (serving generation 1). The caller
// must Close it.
func New(ds *core.Dataset, opts Options) *Server {
	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	size := workload.SizeProfile
	if opts.Quick {
		size = workload.SizeTest
	}
	s := &Server{
		workers:      opts.Workers,
		optSize:      size,
		optSeed:      opts.Seed,
		metrics:      newMetrics(),
		artifactPath: opts.ArtifactPath,
		ctx:          ctx,
		cancel:       cancel,
		stop:         make(chan struct{}),
		start:        time.Now(),
		train:        core.Train,
		buildProfile: profile.BuildAt,
	}
	g := s.newGeneration(1, ds)
	s.gen.Store(g)
	s.metrics.generationID.Store(g.id)
	if opts.Ingest != nil {
		// The drift baseline is the artifact's own training distribution;
		// retrains adopt the appended dataset's summary as the next one.
		s.ingest = ingest.New(*opts.Ingest, ds.TelemetrySummary(), s.retrainWith)
	}
	context.AfterFunc(ctx, func() { s.Close() })
	return s
}

// Close stops the server: requests waiting on another request's cold fill
// return errClosed, in-flight engine dispatch is canceled, and new
// requests fail fast before paying for profiling or training (an
// already-running model fit completes, as an in-flight HTTP request
// would). Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		close(s.stop)
		if s.ingest != nil {
			s.ingest.Close()
		}
	})
	return nil
}

// closedErr fails fast once the server is closed, so post-shutdown
// requests cannot start expensive cold fills.
func (s *Server) closedErr() error {
	select {
	case <-s.stop:
		return errClosed
	default:
		return nil
	}
}

// Handler returns the server's HTTP API. Every endpoint goes through the
// same method/content-type enforcement; only the error wire format differs
// between the /v1 and /v2 surfaces.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(path, method string, werr errWriter, h http.HandlerFunc) {
		mux.HandleFunc(path, s.counted(path, endpoint(method, werr, h)))
	}
	route("/v1/predict", http.MethodPost, writeErrorV1, s.handlePredictV1)
	route("/v2/predict", http.MethodPost, writeErrorV2, s.handlePredictV2)
	route("/v2/stats", http.MethodGet, writeErrorV2, s.handleStatsV2)
	route("/v2/ingest", http.MethodPost, writeErrorV2, s.handleIngestV2)
	route("/v2/retrain", http.MethodPost, writeErrorV2, s.handleRetrainV2)
	route("/v1/workloads", http.MethodGet, writeErrorV1, s.handleWorkloads)
	route("/v1/models", http.MethodGet, writeErrorV1, s.handleModels)
	route("/v1/reload", http.MethodPost, writeErrorV1, s.handleReload)
	route("/healthz", http.MethodGet, writeErrorV1, s.handleHealthz)
	route("/metrics", http.MethodGet, writeErrorV1, s.handleMetrics)
	return mux
}

// statusRecorder captures the response code for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// counted wraps a handler with per-(endpoint, code) request counting.
func (s *Server) counted(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.countRequest(endpoint, rec.code)
	}
}

// query is the version-independent form of one prediction request, after
// JSON decoding and before validation.
type query struct {
	Workload string
	TREFP    float64
	TempC    float64
	VDD      float64
	Model    string
	InputSet int
	// Targets is the requested target selection; nil means the serving
	// generation's default selection (see generation.defaults).
	Targets []string
	// CE is the query's correctable-error telemetry window, consumed by
	// NeedsTelemetry targets.
	CE []profile.CEEvent
}

// numTargets is the registry size: the most targets one query can request
// (every registered target, deduplicated). The pooled per-query
// intermediates below size their reusable backing slices to it, so a warm
// query allocates nothing regardless of how many targets are registered.
var numTargets = len(core.Targets())

// resolved is a validated query bound to its feature vector and models.
// Instances are pooled: the handlers return them through putResolved once
// the response is rendered, so a warm query reuses the previous one's
// storage instead of allocating.
type resolved struct {
	workload string
	trefp    float64
	tempC    float64
	vdd      float64
	kind     core.ModelKind
	// set is the explicitly requested input set, 0 meaning each target's
	// published default.
	set core.InputSet
	// targets is the requested selection in request order, deduplicated.
	// Its backing array is pooled with the struct (cap numTargets).
	targets []core.Target
	feats   []float64
	// ce aliases the decoded request's telemetry window; the handler keeps
	// the request body alive until the response is rendered.
	ce []profile.CEEvent
}

var resolvedPool = sync.Pool{New: func() any {
	return &resolved{targets: make([]core.Target, 0, numTargets)}
}}

// putResolved recycles r. Reference fields are dropped so a pooled entry
// cannot pin a retired generation's profile features or a request body.
func putResolved(r *resolved) {
	if r == nil {
		return
	}
	r.feats = nil
	r.ce = nil
	r.targets = r.targets[:0]
	resolvedPool.Put(r)
}

// setFor resolves the input set serving one target.
func (r *resolved) setFor(t core.Target) core.InputSet {
	if r.set != 0 {
		return r.set
	}
	return t.DefaultInputSet()
}

// resolve validates one query and resolves its workload profile on
// generation g.
func (s *Server) resolve(g *generation, q query) (*resolved, *apiError) {
	spec, err := workload.FindSpec(q.Workload)
	if err != nil {
		return nil, errf(http.StatusNotFound, codeUnknownWorkload, "workload", "%v", err)
	}
	if q.TREFP <= 0 || math.IsNaN(q.TREFP) || math.IsInf(q.TREFP, 0) {
		return nil, errf(http.StatusBadRequest, codeOutOfRange, "trefp", "trefp %v out of range", q.TREFP)
	}
	if math.IsNaN(q.TempC) || math.IsInf(q.TempC, 0) {
		return nil, errf(http.StatusBadRequest, codeOutOfRange, "temp_c", "temp_c %v out of range", q.TempC)
	}
	if q.VDD == 0 {
		q.VDD = dram.MinVDD
	}
	if q.VDD < 0 || math.IsNaN(q.VDD) || math.IsInf(q.VDD, 0) {
		return nil, errf(http.StatusBadRequest, codeOutOfRange, "vdd", "vdd %v out of range", q.VDD)
	}
	if q.Model == "" {
		q.Model = string(core.ModelKNN)
	}
	kind, err := core.ParseModelKind(q.Model)
	if err != nil {
		return nil, errf(http.StatusBadRequest, codeUnknownModel, "model", "unknown model %q", q.Model)
	}
	var set core.InputSet
	switch q.InputSet {
	case 0:
		// Each target's published default (set 1 for WER, set 2 for PUE).
	case 1, 2, 3:
		set = core.InputSet(q.InputSet)
	default:
		return nil, errf(http.StatusBadRequest, codeOutOfRange, "input_set", "input_set %d out of range", q.InputSet)
	}
	if err := profile.ValidateCEEvents(q.CE); err != nil {
		return nil, errf(http.StatusBadRequest, codeBadTelemetry, "ce", "%v", err)
	}
	r2 := resolvedPool.Get().(*resolved)
	targets := r2.targets[:0]
	if len(q.Targets) == 0 {
		// The generation's default selection: every target its artifact can
		// serve, with telemetry targets joining only when the query actually
		// carries CE events — a plain operating-point query against a
		// telemetry-bearing artifact still answers exactly wer+pue.
		targets = append(targets, g.defaults...)
		if len(q.CE) > 0 {
			targets = append(targets, g.telemetryTargets...)
		}
	} else {
		for _, name := range q.Targets {
			t, err := core.ParseTarget(name)
			if err != nil {
				putResolved(r2)
				return nil, errf(http.StatusBadRequest, codeUnknownTarget, "targets", "unknown target %q", name)
			}
			if !g.available[t] {
				putResolved(r2)
				return nil, errf(http.StatusBadRequest, codeTargetUnavailable, "targets",
					"target %q has no training rows in the serving artifact", name)
			}
			dup := false
			for _, have := range targets {
				if have == t {
					dup = true
					break
				}
			}
			if !dup {
				targets = append(targets, t)
			}
		}
	}
	prof, err := s.profileFor(g, spec)
	if err != nil {
		putResolved(r2)
		return nil, servingErr(err)
	}
	r2.workload = spec.Label
	r2.trefp, r2.tempC, r2.vdd = q.TREFP, q.TempC, q.VDD
	r2.kind, r2.set = kind, set
	r2.targets = targets
	r2.feats = prof.Features
	r2.ce = q.CE
	return r2, nil
}

// predicted is one query's answers: preds[i] answers the resolved query's
// targets[i], plus the wall time of this query's model resolution and
// predict. Instances are pooled like resolved; every slice keeps a
// registry-sized backing array across reuses, so the per-target
// intermediates of a warm query live entirely in pooled storage whatever
// the catalog size.
type predicted struct {
	preds   []core.Prediction
	mvs     []modelVal
	stats   []*modelStat
	errs    []error
	elapsed time.Duration
}

var predictedPool = sync.Pool{New: func() any {
	return &predicted{
		preds: make([]core.Prediction, 0, numTargets),
		mvs:   make([]modelVal, 0, numTargets),
		stats: make([]*modelStat, 0, numTargets),
		errs:  make([]error, 0, numTargets),
	}
}}

// forTargets reslices the pooled backing arrays to one slot per requested
// target, zero-valued.
func (p *predicted) forTargets(n int) {
	p.preds = p.preds[:n]
	p.mvs = p.mvs[:n]
	p.stats = p.stats[:n]
	p.errs = p.errs[:n]
}

// putPredicted recycles p, clearing the backing arrays to full capacity so
// a pooled entry cannot pin ByRank result storage, model values or errors
// from a previous request.
func putPredicted(p *predicted) {
	if p == nil {
		return
	}
	clear(p.preds[:cap(p.preds)])
	clear(p.mvs[:cap(p.mvs)])
	clear(p.stats[:cap(p.stats)])
	clear(p.errs[:cap(p.errs)])
	p.preds = p.preds[:0]
	p.mvs = p.mvs[:0]
	p.stats = p.stats[:0]
	p.errs = p.errs[:0]
	predictedPool.Put(p)
}

// pred returns the answer for target t of the query resolved as r.
func (p *predicted) pred(r *resolved, t core.Target) core.Prediction {
	for i, tt := range r.targets {
		if tt == t {
			return p.preds[i]
		}
	}
	return core.Prediction{}
}

// predictOne answers one resolved query on generation g. Only the
// requested targets' models are resolved — a PUE-only query never trains
// or waits for a WER model. Every model resolves before any prediction
// runs; then every target predicts, so each one's accounting is recorded
// even when another target fails.
func (s *Server) predictOne(g *generation, r *resolved) (*predicted, *apiError) {
	start := time.Now()
	p := predictedPool.Get().(*predicted)
	p.forTargets(len(r.targets))
	for i, t := range r.targets {
		p.stats[i] = s.metrics.modelStatFor(modelKey{t, r.kind, r.setFor(t)})
		mv, err := s.model(g, t, r.kind, r.setFor(t))
		if err != nil {
			p.stats[i].errors.inc()
			putPredicted(p)
			return nil, servingErr(err)
		}
		p.mvs[i] = mv
	}
	for i, t := range r.targets {
		predStart := time.Now()
		pr, err := p.mvs[i].pred.Predict(core.Query{
			Target: t, Features: r.feats, TREFP: r.trefp, VDD: r.vdd,
			TempC: r.tempC, Rank: core.RankDevice, CE: r.ce,
		})
		if err != nil {
			p.stats[i].errors.inc()
			p.errs[i] = err
			continue
		}
		// Per-model serving accounting: one answered query per target,
		// with the predict call it paid (/v2/stats; the load generator
		// cross-checks these).
		p.stats[i].queries.inc()
		p.stats[i].latency.observe(time.Since(predStart))
		p.preds[i] = pr
	}
	for _, err := range p.errs {
		if err != nil {
			putPredicted(p)
			return nil, servingErr(err)
		}
	}
	p.elapsed = time.Since(start)
	return p, nil
}

// predictMany resolves and answers a batch. Resolution is all-or-nothing
// (the response always has one result per query) and fans out so a cold
// batch naming several unprofiled workloads pays for the slowest profile
// build, not their sum; the warm predictions then run in query order.
func (s *Server) predictMany(g *generation, qs []query) ([]*resolved, []*predicted, *apiError) {
	if len(qs) == 0 {
		return nil, nil, errf(http.StatusBadRequest, codeEmptyBatch, "queries", "empty batch")
	}
	if len(qs) > maxBatchBody {
		return nil, nil, errf(http.StatusBadRequest, codeBatchTooLarge, "queries",
			"batch of %d exceeds %d", len(qs), maxBatchBody)
	}
	type resolveOut struct {
		r *resolved
		e *apiError
	}
	outs, err := engine.Map(len(qs), func(i int) (resolveOut, error) {
		r, e := s.resolve(g, qs[i])
		return resolveOut{r, e}, nil
	}, engine.Options{Workers: s.workers, Context: s.ctx})
	if err != nil {
		// Only server shutdown cancels the resolve fan-out (per-query
		// failures travel inside resolveOut); outs may hold skipped
		// zero-valued entries, so bail before touching them.
		return nil, nil, servingErr(err)
	}
	rs := make([]*resolved, len(qs))
	for i, o := range outs {
		if o.e != nil {
			return nil, nil, o.e.at(i)
		}
		rs[i] = o.r
	}
	preds := make([]*predicted, len(rs))
	for i, rq := range rs {
		p, e := s.predictOne(g, rq)
		if e != nil {
			return nil, nil, e.at(i)
		}
		preds[i] = p
	}
	return rs, preds, nil
}

// ms renders a duration in the wire format's fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// PredictRequest is one /v1 prediction query.
type PredictRequest struct {
	Workload string  `json:"workload"`
	TREFP    float64 `json:"trefp"`
	TempC    float64 `json:"temp_c"`
	// VDD defaults to the campaign voltage (dram.MinVDD) when zero.
	VDD float64 `json:"vdd,omitempty"`
	// Model defaults to the paper's published KNN variant.
	Model string `json:"model,omitempty"`
	// InputSet (1–3) selects the feature set for both targets; zero means
	// the paper's best per target (set 1 for WER, set 2 for PUE).
	InputSet int `json:"input_set,omitempty"`
}

// query converts the v1 wire form to the shared query. The legacy surface
// pins the original target pair explicitly — its wire format has exactly
// the wer/pue fields, whatever else the registry has since grown.
func (r PredictRequest) query() query {
	return query{
		Workload: r.Workload, TREFP: r.TREFP, TempC: r.TempC, VDD: r.VDD,
		Model: r.Model, InputSet: r.InputSet,
		Targets: []string{string(core.TargetWER), string(core.TargetPUE)},
	}
}

// PredictResponse is the /v1 answer to one query. ElapsedMS is per query:
// the wall time of that query's model resolution and prediction.
type PredictResponse struct {
	Workload  string    `json:"workload"`
	TREFP     float64   `json:"trefp"`
	TempC     float64   `json:"temp_c"`
	VDD       float64   `json:"vdd"`
	Model     string    `json:"model"`
	WERMean   float64   `json:"wer_mean"`
	WERByRank []float64 `json:"wer_by_rank"`
	PUE       float64   `json:"pue"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// predictBody accepts either a single query or a batch.
type predictBody struct {
	PredictRequest
	Queries []PredictRequest `json:"queries,omitempty"`
}

// renderV1 adapts a unified prediction to the legacy wire format.
func renderV1(r *resolved, p *predicted) *PredictResponse {
	wer := p.pred(r, core.TargetWER)
	pue := p.pred(r, core.TargetPUE)
	return &PredictResponse{
		Workload:  r.workload,
		TREFP:     r.trefp,
		TempC:     r.tempC,
		VDD:       r.vdd,
		Model:     string(r.kind),
		WERMean:   wer.Value,
		WERByRank: wer.ByRank,
		PUE:       pue.Value,
		ElapsedMS: ms(p.elapsed),
	}
}

// handlePredictV1 is the legacy surface: a thin adapter over the shared
// resolve/predict path that always computes both targets and renders the
// pinned v1 wire format.
func (s *Server) handlePredictV1(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var body predictBody
	if e := decodeBody(r, &body); e != nil {
		writeErrorV1(w, e)
		return
	}
	defer func() { s.metrics.predictSeconds.observe(time.Since(start)) }()

	// One generation serves the whole request: a reload swapping in a new
	// dataset mid-request must not mix state.
	g, err := s.acquire()
	if err != nil {
		writeErrorV1(w, servingErr(err))
		return
	}

	if body.Queries != nil {
		qs := make([]query, len(body.Queries))
		for i, q := range body.Queries {
			qs[i] = q.query()
		}
		rs, preds, e := s.predictMany(g, qs)
		if e != nil {
			writeErrorV1(w, e)
			return
		}
		results := make([]*PredictResponse, len(rs))
		for i := range rs {
			results[i] = renderV1(rs[i], preds[i])
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": results})
		freeMany(rs, preds)
		return
	}

	rq, e := s.resolve(g, body.PredictRequest.query())
	if e != nil {
		writeErrorV1(w, e)
		return
	}
	p, e := s.predictOne(g, rq)
	if e != nil {
		putResolved(rq)
		writeErrorV1(w, e)
		return
	}
	writeJSON(w, http.StatusOK, renderV1(rq, p))
	putResolved(rq)
	putPredicted(p)
}

// freeMany recycles a batch's intermediates after its response is
// rendered.
func freeMany(rs []*resolved, preds []*predicted) {
	for _, r := range rs {
		putResolved(r)
	}
	for _, p := range preds {
		putPredicted(p)
	}
}

// handleReload reloads the server's configured artifact. The endpoint
// deliberately takes no path: letting an unauthenticated HTTP client name
// an arbitrary server-side file would allow filesystem probing and model
// substitution. Operators choose the artifact at startup (-load); the
// request body must be empty or an empty JSON object.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var body struct{}
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		// Same decode contract as everywhere else (413 past the body cap,
		// 400 otherwise), with an entirely empty body additionally allowed.
		writeErrorV1(w, decodeErr(err))
		return
	}
	if s.artifactPath == "" {
		writeErrorV1(w, errf(http.StatusBadRequest, codeNotArtifactBacked, "",
			"not artifact-backed: the server was started without -load"))
		return
	}
	res, err := s.Reload(s.artifactPath)
	if err != nil {
		e := servingErr(err)
		e.msg = "reload: " + e.msg
		writeErrorV1(w, e)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Label    string `json:"label"`
		Threads  int    `json:"threads"`
		Profiled bool   `json:"profiled"`
		InCorpus bool   `json:"in_corpus"`
	}
	g := s.gen.Load()
	profiled := s.profiledLabels(g)
	inCorpus := map[string]bool{}
	for _, l := range g.ds.Workloads() {
		inCorpus[l] = true
	}
	var out []entry
	for _, spec := range workload.ExtendedSet() {
		out = append(out, entry{spec.Label, spec.Threads, profiled[spec.Label], inCorpus[spec.Label]})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	kinds := core.ModelKinds()
	sets := make([]int, 0, 3)
	for _, set := range core.InputSets() {
		sets = append(sets, int(set))
	}
	targets := make([]string, 0, numTargets)
	for _, t := range core.Targets() {
		targets = append(targets, string(t))
	}
	trained := s.trained(s.gen.Load())
	if trained == nil {
		trained = []trainedModel{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"kinds":      kinds,
		"input_sets": sets,
		"targets":    targets,
		"trained":    trained,
	})
}

// HealthResponse is the GET /healthz body. It is exported because it is
// the cross-node probing contract: the cluster router (internal/cluster,
// cmd/dramrouter) decodes exactly this struct to health-check backends and
// to detect artifact-fingerprint skew across a sharded pool.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Generation and Fingerprint identify the serving artifact; the
	// fingerprint is the authoritative cross-node identity (generation
	// counters are per-process).
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	WERRows     int    `json:"wer_rows"`
	PUERows     int    `json:"pue_rows"`
	UERows      int    `json:"uer_rows"`
	Workloads   int    `json:"workloads"`
	// Targets advertises the prediction targets this artifact can serve,
	// in catalog order. Clients (dramfleet's "all" selection) resolve
	// target availability from here instead of hardcoding the catalog.
	Targets []string `json:"targets"`
}

// Identity reports the current serving generation and artifact
// fingerprint — the same pair /healthz and every /v2 response surface.
func (s *Server) Identity() (generation int64, fingerprint string) {
	g := s.gen.Load()
	return g.id, g.fp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.gen.Load()
	targets := make([]string, 0, len(g.available))
	for _, t := range core.Targets() {
		if g.available[t] {
			targets = append(targets, string(t))
		}
	}
	writeJSON(w, http.StatusOK, &HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Generation:    g.id,
		Fingerprint:   g.fp,
		WERRows:       len(g.ds.WER),
		PUERows:       len(g.ds.PUE),
		UERows:        len(g.ds.UER),
		Workloads:     len(g.ds.Workloads()),
		Targets:       targets,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.render(w)
	if s.ingest != nil {
		st := s.ingest.Snapshot()
		fmt.Fprintf(w, "dramserve_ingest_accepted_total %d\n", st.Accepted)
		fmt.Fprintf(w, "dramserve_ingest_dropped_total %d\n", st.Dropped)
		fmt.Fprintf(w, "dramserve_ingest_queue_depth %d\n", st.QueueDepth)
		fmt.Fprintf(w, "dramserve_ingest_buffered_rows %d\n", st.Buffered)
		fmt.Fprintf(w, "dramserve_ingest_drift_score %g\n", st.DriftScore)
		fmt.Fprintf(w, "dramserve_retrain_total %d\n", st.Retrains)
		fmt.Fprintf(w, "dramserve_retrain_failures_total %d\n", st.RetrainFailures)
		s.metrics.retrainSeconds.render(w, "dramserve_retrain_seconds")
	}
}
