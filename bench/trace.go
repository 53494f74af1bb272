package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the call. Spans of one request share a trace id; a
// span's parent is the span that caused it (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run pays no tracing cost.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// id allocates a span or trace id (0 when tracing is off).
func (l *spanLog) id() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// add records a finished span and returns its id.
func (l *spanLog) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	id := l.id()
	l.mu.Lock()
	l.spans = append(l.spans, span{trace, id, parent, name, start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
	return id
}

// addPhase records one root span per request of an open-loop phase, from
// its scheduled time to its completion, with a child span from the send.
func (l *spanLog) addPhase(ph *phase) {
	if l == nil {
		return
	}
	for i := range ph.outs {
		o := &ph.outs[i]
		if !o.issued {
			continue
		}
		name := ph.name + ".predict"
		if ph.ops[i].kind == opIngest {
			name = ph.name + ".ingest"
		}
		trace := l.id()
		root := l.add(trace, 0, name, ph.start.Add(ph.ops[i].at), ph.start.Add(o.done))
		l.add(trace, root, "http.send", ph.start.Add(o.sent), ph.start.Add(o.done))
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
