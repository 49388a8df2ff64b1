package main

import "time"

// span is one timed interval at a layer boundary the harness can see: a
// request root, or a public call the harness makes on the request's behalf.
// Spans of one request share Req; Parent is the index of the causing span
// (-1 for a root). Start and End are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory; the run writes them out when it ends. A nil
// tracer records nothing, so untraced passes share the traced passes' code
// with one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span name, the mean self time in nanoseconds: a
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	sum := map[string]float64{}
	n := map[string]float64{}
	for i, s := range t.spans {
		sum[s.Name] += float64(self[i])
		n[s.Name]++
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum
}
