package serve

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// errClosed reports a request caught by server shutdown.
var errClosed = errors.New("serve: server closed")

// A generation is one immutable serving configuration: a dataset plus every
// piece of state derived from it (trained models, workload profiles). The
// server holds the current generation behind an atomic pointer; a hot
// reload builds a fresh generation and swaps the pointer, so cross-dataset
// state can never leak — a model trained on the old rows is unreachable the
// moment the new generation is visible, and the sticky-error class of bugs
// (stale state surviving a refresh) is structurally impossible.
//
// A request loads the pointer once and uses that generation for its full
// duration, so in-flight queries finish on the generation they started
// with. Once a generation is swapped out and the last request holding it
// returns, the garbage collector frees it.
type generation struct {
	// id is the monotonically increasing generation number (1 at startup),
	// surfaced in /healthz and /metrics.
	id int64
	// fp is the dataset's content fingerprint; a reload whose artifact
	// hashes to the current fp is a no-op.
	fp string

	ds   *core.Dataset
	size workload.Size
	seed uint64

	registry *modelRegistry
	profiles *profileCache

	// Target availability, derived once from the dataset against the core
	// target registry. available gates explicit requests; defaults is the
	// selection an empty request answers (catalog order, non-telemetry);
	// telemetryTargets joins that selection only when the query carries CE
	// events — an old artifact without UE rows keeps answering exactly the
	// legacy pair.
	available        map[core.Target]bool
	defaults         []core.Target
	telemetryTargets []core.Target
}

// newGeneration derives a generation from a dataset. The profiling size and
// seed come from the artifact's recorded build settings when known (a
// reloaded artifact may have been rebuilt with different settings), falling
// back to the server's startup options.
func (s *Server) newGeneration(id int64, ds *core.Dataset) *generation {
	size, seed := s.optSize, s.optSeed
	if b := ds.Build; b.Known() {
		if b.Quick() {
			size = workload.SizeTest
		} else {
			size = workload.SizeProfile
		}
		seed = b.Seed
	}
	g := &generation{
		id:       id,
		fp:       ds.Fingerprint(),
		ds:       ds,
		size:     size,
		seed:     seed,
		registry: newModelRegistry(),
		profiles: newProfileCache(),
	}
	g.available = make(map[core.Target]bool, len(core.Targets()))
	for _, d := range core.Descriptors() {
		if !d.Available(ds) {
			continue
		}
		g.available[d.Name] = true
		if d.NeedsTelemetry {
			g.telemetryTargets = append(g.telemetryTargets, d.Name)
		} else {
			g.defaults = append(g.defaults, d.Name)
		}
	}
	return g
}

// acquire returns the current generation for one request, failing fast
// once the server is closed.
func (s *Server) acquire() (*generation, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	return s.gen.Load(), nil
}

// ReloadResult reports the outcome of one reload request.
type ReloadResult struct {
	// Generation is the serving generation after the reload: bumped on a
	// swap, unchanged on a fingerprint no-op.
	Generation int64 `json:"generation"`
	// Fingerprint is the content hash of the artifact that is now serving.
	Fingerprint string `json:"fingerprint"`
	// Swapped is false when the artifact fingerprint matched the serving
	// generation and nothing changed.
	Swapped bool `json:"swapped"`
	// ElapsedMS is the wall time of the reload: artifact load,
	// fingerprinting and (on a swap) building the new generation.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Reload loads the artifact at path and, unless its fingerprint matches the
// serving generation, swaps it in as a new generation: queries that arrive
// after the swap see the new dataset with fresh (lazily trained) models,
// queries already in flight finish on the generation they started with —
// no request is dropped or blocked by a reload. Reloads are serialized;
// concurrent calls queue.
func (s *Server) Reload(path string) (*ReloadResult, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	start := time.Now()
	ds, err := core.LoadDataset(path)
	if err != nil {
		s.metrics.reloadErrors.inc()
		return nil, err
	}
	return s.swapDataset(ds, start), nil
}

// swapDataset is the artifact-independent half of Reload (reloadMu held).
func (s *Server) swapDataset(ds *core.Dataset, start time.Time) *ReloadResult {
	cur := s.gen.Load()
	fp := ds.Fingerprint()
	if fp == cur.fp {
		s.metrics.reloadNoops.inc()
		return &ReloadResult{
			Generation:  cur.id,
			Fingerprint: fp,
			ElapsedMS:   float64(time.Since(start).Microseconds()) / 1e3,
		}
	}
	g := s.newGeneration(cur.id+1, ds)
	s.gen.Store(g)
	s.metrics.generationID.Store(g.id)
	s.metrics.reloads.inc()
	s.metrics.reloadSeconds.observe(time.Since(start))
	return &ReloadResult{
		Generation:  g.id,
		Fingerprint: fp,
		Swapped:     true,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1e3,
	}
}
