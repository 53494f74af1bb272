package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/workload"
)

// The streaming-ingest surface: POST /v2/ingest feeds telemetry rows into
// the bounded pipeline (internal/ingest), POST /v2/retrain forces the
// buffered rows into a retrain. The pipeline's retrain callback lands in
// retrainWith below: it rebuilds the dataset through the same trainer
// seams the registry uses, persists the artifact atomically, and publishes
// through the generation swap — in-flight queries finish on the generation
// they started with, exactly as a /v1/reload.

// IngestRequestV2 is the POST /v2/ingest body.
type IngestRequestV2 struct {
	Rows []ingest.Row `json:"rows"`
}

// IngestResponseV2 is the POST /v2/ingest success (and 429 partial) body.
type IngestResponseV2 struct {
	// Accepted counts the rows enqueued from this request.
	Accepted int `json:"accepted"`
	// QueueDepth is the intake queue's depth after the offer.
	QueueDepth int64 `json:"queue_depth"`
}

// RetrainResponseV2 is the POST /v2/retrain body: the resulting serving
// identity plus how many buffered rows the retrain folded in.
type RetrainResponseV2 struct {
	Generation  int64   `json:"generation"`
	Fingerprint string  `json:"fingerprint"`
	Swapped     bool    `json:"swapped"`
	RowsFolded  int     `json:"rows_folded"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// ingestDisabled is the uniform answer on both ingest endpoints when the
// server runs without a pipeline.
func ingestDisabled() *apiError {
	return errf(http.StatusBadRequest, codeIngestDisabled, "",
		"ingest disabled: the server was started without -ingest")
}

// handleIngestV2 serves POST /v2/ingest: validate every row (all-or-
// nothing, like a predict batch), then offer the batch to the bounded
// queue. A full queue answers 429 with Retry-After and the accepted
// prefix count — the explicit backpressure contract.
func (s *Server) handleIngestV2(w http.ResponseWriter, r *http.Request) {
	if s.ingest == nil {
		writeErrorV2(w, ingestDisabled())
		return
	}
	var body IngestRequestV2
	if e := decodeBody(r, &body); e != nil {
		writeErrorV2(w, e)
		return
	}
	if len(body.Rows) == 0 {
		writeErrorV2(w, errf(http.StatusBadRequest, codeEmptyBatch, "rows", "empty batch"))
		return
	}
	if len(body.Rows) > maxBatchBody {
		writeErrorV2(w, errf(http.StatusBadRequest, codeBatchTooLarge, "rows",
			"batch of %d exceeds %d", len(body.Rows), maxBatchBody))
		return
	}
	for i := range body.Rows {
		row := &body.Rows[i]
		if field, err := row.Validate(); err != nil {
			code := codeOutOfRange
			if field == "ce" {
				code = codeBadTelemetry
			}
			writeErrorV2(w, errf(http.StatusBadRequest, code, field, "row %d: %v", i, err))
			return
		}
		// The workload label must resolve against the benchmark registry
		// here — the pipeline cannot, and a retrain must never discover an
		// unprofilable row it has already accepted.
		if row.Workload != "" {
			if _, err := workload.FindSpec(row.Workload); err != nil {
				writeErrorV2(w, errf(http.StatusNotFound, codeUnknownWorkload, "workload",
					"row %d: %v", i, err))
				return
			}
		}
	}
	n, err := s.ingest.Offer(body.Rows)
	if err != nil {
		if errors.Is(err, ingest.ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeErrorV2(w, errf(http.StatusTooManyRequests, codeQueueFull, "rows",
				"queue full: accepted %d of %d rows, retry the rest later", n, len(body.Rows)))
			return
		}
		writeErrorV2(w, servingErr(err))
		return
	}
	writeJSON(w, http.StatusOK, &IngestResponseV2{
		Accepted:   n,
		QueueDepth: s.ingest.Snapshot().QueueDepth,
	})
}

// handleRetrainV2 serves POST /v2/retrain: force the buffered rows into a
// retrain now. Same empty-body contract as /v1/reload; a retrain already
// running (a background trigger mid-rebuild) answers 409.
func (s *Server) handleRetrainV2(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var body struct{}
	if err := dec.Decode(&body); err != nil && err != io.EOF {
		writeErrorV2(w, decodeErr(err))
		return
	}
	if s.ingest == nil {
		writeErrorV2(w, ingestDisabled())
		return
	}
	n, err := s.ingest.RetrainNow()
	if err != nil {
		switch {
		case errors.Is(err, ingest.ErrRetrainInProgress):
			writeErrorV2(w, errf(http.StatusConflict, codeRetrainInProgress, "", "%v", err))
		case errors.Is(err, ingest.ErrClosed):
			writeErrorV2(w, errf(http.StatusServiceUnavailable, codeUnavailable, "", "%v", err))
		default:
			e := servingErr(err)
			e.msg = "retrain: " + e.msg
			writeErrorV2(w, e)
		}
		return
	}
	res := s.lastRetrain.Load()
	if res == nil {
		// RetrainNow succeeded without a stored result only if the callback
		// was never invoked, which cannot happen on a live pipeline.
		writeErrorV2(w, errf(http.StatusInternalServerError, codeInternal, "",
			"retrain completed without a result"))
		return
	}
	writeJSON(w, http.StatusOK, &RetrainResponseV2{
		Generation:  res.Generation,
		Fingerprint: res.Fingerprint,
		Swapped:     res.Swapped,
		RowsFolded:  n,
		ElapsedMS:   res.ElapsedMS,
	})
}

// retrainWith is the pipeline's RetrainFunc: append the drained rows to
// the serving dataset, persist the refreshed artifact atomically, and
// publish it as a new generation. The returned summary (the appended
// dataset's own telemetry distribution) becomes the pipeline's next drift
// baseline.
func (s *Server) retrainWith(rows []ingest.Row, reason string) (*core.TelemetrySummary, error) {
	_ = reason // uniform path; the trigger is visible in the pipeline counters
	start := time.Now()
	g, err := s.acquire()
	if err != nil {
		return nil, err
	}
	wer, pue, uer, err := s.convertRows(g, rows)
	if err != nil {
		return nil, err
	}

	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	ds := s.gen.Load().ds.Append(wer, pue, uer)
	// Persist before publishing: a failed write must never leave the
	// server answering a fingerprint that exists nowhere on disk, and the
	// atomic rename keeps -reload-interval pollers (and sibling processes)
	// from ever reading a torn artifact.
	if s.artifactPath != "" && ds.Fingerprint() != s.gen.Load().fp {
		if err := ds.SaveAtomic(s.artifactPath); err != nil {
			return nil, err
		}
	}
	res := s.swapDataset(ds, start)
	s.lastRetrain.Store(res)
	s.metrics.retrainSeconds.observe(time.Since(start))
	return ds.TelemetrySummary(), nil
}

// convertRows turns validated ingest rows into dataset samples. WER/PUE
// rows need their workload's program features; the distinct workloads
// resolve through the generation's profile cache, fanned out on the
// engine's bounded worker pool (one cold build per workload, not per row).
func (s *Server) convertRows(g *generation, rows []ingest.Row) (
	wer []core.WERSample, pue []core.PUESample, uer []core.UESample, err error) {
	labelSet := map[string]bool{}
	for i := range rows {
		if rows[i].Workload != "" && (rows[i].WER != nil || rows[i].PUE != nil) {
			labelSet[rows[i].Workload] = true
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	type profiled struct {
		spec workload.Spec
		prof *profile.Result
	}
	profs := map[string]profiled{}
	if len(labels) > 0 {
		outs, mapErr := engine.Map(len(labels), func(i int) (profiled, error) {
			spec, err := workload.FindSpec(labels[i])
			if err != nil {
				return profiled{}, err
			}
			prof, err := s.profileFor(g, spec)
			if err != nil {
				return profiled{}, err
			}
			return profiled{spec, prof}, nil
		}, engine.Options{Workers: s.workers, Context: s.ctx})
		if mapErr != nil {
			return nil, nil, nil, mapErr
		}
		for i, o := range outs {
			profs[labels[i]] = o
		}
	}
	for i := range rows {
		row := &rows[i]
		vdd := row.VDD
		if vdd == 0 {
			vdd = dram.MinVDD
		}
		if row.UE != nil {
			uer = append(uer, core.UESample{
				Server:     row.Server,
				TREFP:      row.TREFP,
				VDD:        vdd,
				TempC:      row.TempC,
				CEFeatures: profile.CEFeatures(row.CE),
				UE:         *row.UE,
			})
		}
		if row.WER == nil && row.PUE == nil {
			continue
		}
		p := profs[row.Workload]
		if row.WER != nil {
			w := *row.WER
			if w < core.WERFloor {
				// Zero observed errors records at the campaign's resolution
				// limit, matching how BuildDataset floors its own rows.
				w = core.WERFloor
			}
			wer = append(wer, core.WERSample{
				Workload: p.spec.Label,
				Threads:  p.spec.Threads,
				TREFP:    row.TREFP,
				VDD:      vdd,
				TempC:    row.TempC,
				Rank:     row.Rank,
				Features: p.prof.Features,
				WER:      w,
			})
		}
		if row.PUE != nil {
			pue = append(pue, core.PUESample{
				Workload: p.spec.Label,
				Threads:  p.spec.Threads,
				TREFP:    row.TREFP,
				VDD:      vdd,
				TempC:    row.TempC,
				Features: p.prof.Features,
				PUE:      *row.PUE,
			})
		}
	}
	return wer, pue, uer, nil
}
