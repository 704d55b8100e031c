package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around calls into each layer's public functions and around each
// request of the load generator; Parent is the index of the span that caused
// this one (-1 for a root) and spans of one request or batch share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is tracing
// off. It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.spans = append(t.spans, span{
		Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
