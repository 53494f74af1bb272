//go:build race

package serve

// raceEnabled reports whether the race detector is instrumenting this build.
// Under race, sync.Pool intentionally drops items to widen interleavings, so
// allocation-count assertions don't hold and are skipped.
const raceEnabled = true
