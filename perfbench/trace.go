package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // id of the enclosing span, 0 for an operation's root
	Op     int    `json:"op"`     // index of the operation in the plan
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs and untraced rounds call it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// call runs f inside a span.
func (t *tracer) call(name string, parent, op int, f func()) {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write stores the spans as JSON, once, at the end of the run.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums each span name's self time: its duration minus the part
// of that interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i+1]))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	first := true
	for _, v := range iv {
		switch {
		case first || v[0] >= hi:
			total += v[1] - v[0]
			hi = v[1]
			first = false
		case v[1] > hi:
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}
