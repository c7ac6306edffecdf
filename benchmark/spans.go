package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// ID of the enclosing span (-1 at the root), so a trace nests workload →
// round or probe → call. SelfNs, filled in when the trace is written, is
// the span's duration minus the part its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer records the benchmark's own spans in memory. It belongs to the
// driver goroutine alone: the follower of a socket workload records
// nothing. The nil tracer records nothing either, which is how the
// untraced set and the plain rounds of the traced set run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func noop() {}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Since(t.epoch).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes every span's self time. Spans of one tracer never
// overlap their siblings (one goroutine opens and closes them in stack
// order), so the children's cover is the sum of their durations.
func (t *tracer) finish() []span {
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].SelfNs = out[i].EndNs - out[i].StartNs
	}
	for _, s := range out {
		if s.Parent >= 0 {
			out[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	return out
}

// traceFile is the document -trace-out writes.
type traceFile struct {
	Env   envStamp `json:"env"`
	Spans []span   `json:"spans"`
}

func (t *tracer) write(path string, env envStamp) error {
	data, err := json.Marshal(traceFile{Env: env, Spans: t.finish()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
