package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op; a
// child names its parent span, so a request's spans form a tree rooted at
// the generator's span for that operation.
type span struct {
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so the untraced run passes nil and pays only the nil checks.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span that started at start and lasted d.
func (t *tracer) add(op int64, parent, layer, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := span{Op: op, Parent: parent, Layer: layer, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), Dur: d.Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byOp groups span durations (µs) of one name by operation id.
func byOp(spans []span, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Op] += float64(s.Dur) / 1e3
		}
	}
	return out
}

// durations returns the durations (µs) of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur)/1e3)
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines, in start order.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
