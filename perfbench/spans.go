package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call recorded by the benchmark around an exported
// library function.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Cell   int           `json:"cell"`   // id of the cell the span belongs to, -1 outside cells
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil tracer records nothing, so untraced passes share the
// traced code path at the cost of a nil check.
type tracer struct {
	epoch time.Time
	spans []span
	cells int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Cell: cell, Start: time.Since(t.epoch), End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
}

// record adds a span measured elsewhere (a runner OnDone record).
func (t *tracer) record(name string, parent, cell int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Cell: cell,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// cell allocates the next cell id.
func (t *tracer) cell() int {
	if t == nil {
		return -1
	}
	t.cells++
	return t.cells - 1
}

// writeJSON writes the spans as one JSON array, times in nanoseconds
// since the tracer started.
func (t *tracer) writeJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.spans)
}
