package serve

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/profile"
)

// The /v2 wire format: typed per-query target selection, per-target
// results with model metadata, artifact generation/fingerprint on every
// response, and structured {code, field, message} errors. See API.md for
// the full schema.

// PredictRequestV2 is one /v2 prediction query.
type PredictRequestV2 struct {
	Workload string  `json:"workload"`
	TREFP    float64 `json:"trefp"`
	TempC    float64 `json:"temp_c"`
	// VDD defaults to the campaign voltage (dram.MinVDD) when zero.
	VDD float64 `json:"vdd,omitempty"`
	// Model defaults to the paper's published KNN variant.
	Model string `json:"model,omitempty"`
	// InputSet (1–3) selects the feature set for every requested target;
	// zero means each target's published default.
	InputSet int `json:"input_set,omitempty"`
	// Targets selects which prediction targets to compute (see /v2/models
	// for the serving artifact's catalog); empty means the server's default
	// selection for the artifact. A query that omits a target never trains
	// or waits for that target's model.
	Targets []string `json:"targets,omitempty"`
	// CE is the query's correctable-error telemetry window, time-ordered.
	// Telemetry-driven targets (ue_risk) vectorize it; an absent or empty
	// log is a healthy window, not an error.
	CE []profile.CEEvent `json:"ce,omitempty"`
}

func (r PredictRequestV2) query() query {
	return query{
		Workload: r.Workload, TREFP: r.TREFP, TempC: r.TempC, VDD: r.VDD,
		Model: r.Model, InputSet: r.InputSet, Targets: r.Targets, CE: r.CE,
	}
}

// predictBodyV2 accepts either a single query or a batch.
type predictBodyV2 struct {
	PredictRequestV2
	Queries []PredictRequestV2 `json:"queries,omitempty"`
}

// v2BodyPool recycles decode targets for /v2/predict so the warm
// single-query path allocates no body struct and reuses the previous
// request's Targets and CE backing arrays (encoding/json decodes into
// existing capacity). The reset rules are subtle: fields absent from a
// document keep their pre-decode values, so everything must be cleared on
// put — and Queries must return to nil, not length zero, because the
// handler distinguishes a single query (no "queries" key) from an
// explicit empty batch by that nil.
var v2BodyPool = sync.Pool{New: func() any { return new(predictBodyV2) }}

// putV2Body returns a decode target to the pool. Callers must be done
// with every slice the body owns — resolved.ce aliases the body's CE
// until the prediction completes — so handlers defer this until after
// the response renders.
func putV2Body(b *predictBodyV2) {
	targets := b.Targets[:0]
	clear(targets[:cap(targets)]) // drop string refs pinned past the reslice
	ce := b.CE[:0]
	// Zero the CE elements, not just the length: encoding/json reuses
	// existing array elements when decoding into capacity and only
	// overwrites the fields present in the document, so a sparse event
	// like {"t":1} would otherwise inherit the previous request's DRAM
	// coordinates.
	clear(ce[:cap(ce)])
	clear(b.Queries) // batch elements own their own Targets/CE slices
	b.Queries = nil
	b.PredictRequestV2 = PredictRequestV2{Targets: targets, CE: ce}
	v2BodyPool.Put(b)
}

// TargetResultV2 is one target's prediction inside a /v2 response.
type TargetResultV2 struct {
	// Value is the prediction: device-mean WER, or crash probability.
	Value float64 `json:"value"`
	// ByRank is the per-rank WER breakdown; absent for PUE.
	ByRank []float64 `json:"by_rank,omitempty"`
	// InputSet is the feature set the answering model was trained on.
	InputSet int `json:"input_set"`
}

// PredictItemV2 is the answer to one /v2 query. ElapsedMS is per query:
// the wall time of that query's model resolution and prediction.
type PredictItemV2 struct {
	Workload    string                    `json:"workload"`
	TREFP       float64                   `json:"trefp"`
	TempC       float64                   `json:"temp_c"`
	VDD         float64                   `json:"vdd"`
	Model       string                    `json:"model"`
	Predictions map[string]TargetResultV2 `json:"predictions"`
	ElapsedMS   float64                   `json:"elapsed_ms"`
}

// PredictResponseV2 is the single-query /v2 response: the item plus the
// serving artifact's identity.
type PredictResponseV2 struct {
	PredictItemV2
	Generation  int64  `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

// PredictBatchResponseV2 is the batch /v2 response.
type PredictBatchResponseV2 struct {
	Results     []*PredictItemV2 `json:"results"`
	Generation  int64            `json:"generation"`
	Fingerprint string           `json:"fingerprint"`
}

// renderV2 adapts a unified prediction to the /v2 item shape.
func renderV2(r *resolved, p *predicted) *PredictItemV2 {
	out := &PredictItemV2{
		Workload:    r.workload,
		TREFP:       r.trefp,
		TempC:       r.tempC,
		VDD:         r.vdd,
		Model:       string(r.kind),
		Predictions: make(map[string]TargetResultV2, len(r.targets)),
		ElapsedMS:   ms(p.elapsed),
	}
	for i, t := range r.targets {
		pred := p.preds[i]
		out.Predictions[string(t)] = TargetResultV2{
			Value:    pred.Value,
			ByRank:   pred.ByRank,
			InputSet: int(pred.Set),
		}
	}
	return out
}

// handlePredictV2 serves POST /v2/predict over the same resolve/predict
// path as /v1, with per-query target selection and structured errors.
func (s *Server) handlePredictV2(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body := v2BodyPool.Get().(*predictBodyV2)
	defer putV2Body(body)
	if e := decodeBody(r, body); e != nil {
		writeErrorV2(w, e)
		return
	}
	defer func() { s.metrics.predictSeconds.observe(time.Since(start)) }()

	g, err := s.acquire()
	if err != nil {
		writeErrorV2(w, servingErr(err))
		return
	}

	if body.Queries != nil {
		qs := make([]query, len(body.Queries))
		for i, q := range body.Queries {
			qs[i] = q.query()
		}
		rs, preds, e := s.predictMany(g, qs)
		if e != nil {
			writeErrorV2(w, e)
			return
		}
		resp := &PredictBatchResponseV2{
			Results:     make([]*PredictItemV2, len(rs)),
			Generation:  g.id,
			Fingerprint: g.fp,
		}
		for i := range rs {
			resp.Results[i] = renderV2(rs[i], preds[i])
		}
		writeJSON(w, http.StatusOK, resp)
		freeMany(rs, preds)
		return
	}

	rq, e := s.resolve(g, body.PredictRequestV2.query())
	if e != nil {
		writeErrorV2(w, e)
		return
	}
	p, e := s.predictOne(g, rq)
	if e != nil {
		putResolved(rq)
		writeErrorV2(w, e)
		return
	}
	writeJSON(w, http.StatusOK, &PredictResponseV2{
		PredictItemV2: *renderV2(rq, p),
		Generation:    g.id,
		Fingerprint:   g.fp,
	})
	putResolved(rq)
	putPredicted(p)
}
