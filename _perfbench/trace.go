package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one user-visible
// operation share Op; Parent is the span that made the call (0 for an op's
// root span).
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent"`
	Op     int64             `json:"op"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is valid and
// records nothing, so the same replay code serves traced and untraced runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span. op 0 starts a new operation whose id is the span's
// own id.
func (t *tracer) begin(name string, op, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	if op == 0 {
		op = id
	}
	return &openSpan{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0)}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) op() int64 {
	if o == nil {
		return 0
	}
	return o.s.Op
}

func (o *openSpan) tag(k, v string) {
	if o == nil {
		return
	}
	if o.s.Tags == nil {
		o.s.Tags = map[string]string{}
	}
	o.s.Tags[k] = v
}

// end closes the span and returns its duration.
func (o *openSpan) end() time.Duration {
	if o == nil {
		return 0
	}
	o.s.End = time.Since(o.t.t0)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s.dur()
}

// layer runs f inside a child span of parent and returns f's wall time,
// which is measured whether or not the tracer records.
func (t *tracer) layer(parent *openSpan, name string, f func() error) (time.Duration, error) {
	sp := t.begin(name, parent.op(), parent.id())
	start := time.Now()
	err := f()
	d := time.Since(start)
	if sp != nil {
		d = sp.end()
	}
	return d, err
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

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children are merged, so
// concurrent children are not counted twice).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = a, b
			} else if b > curEnd {
				curEnd = b
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSum returns, for the operation rooted at span root, the sum of the
// self times of every span below the root — the time the op spent inside
// the layers, excluding the benchmark's own glue between calls.
func layerSum(spans []span, root int64) time.Duration {
	var op int64
	for _, s := range spans {
		if s.ID == root {
			op = s.Op
		}
	}
	var mine []span
	for _, s := range spans {
		if s.Op == op {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	var sum time.Duration
	for _, s := range mine {
		if s.ID != root {
			sum += self[s.ID]
		}
	}
	return sum
}

// layerCheck compares the layer-sum of traced ops with the untraced op time.
// The gap is |median layer-sum − median untraced| / median untraced; the
// overhead is median traced op − median untraced op.
type layerCheck struct {
	UntracedMs []float64 `json:"untraced_ms"`
	TracedMs   []float64 `json:"traced_ms"`
	LayerSumMs []float64 `json:"layer_sum_ms"`
}

// layerSumMargin is the stated margin within which the traced layer self
// times must add up to the untraced op time. Host noise between two runs of
// one op is the bulk of it on a shared two-core machine.
const layerSumMargin = 0.25

func (c layerCheck) gap() float64 {
	u := median(c.UntracedMs)
	if u == 0 {
		return 0
	}
	d := median(c.LayerSumMs) - u
	if d < 0 {
		d = -d
	}
	return d / u
}

func (c layerCheck) overheadMs() float64 { return median(c.TracedMs) - median(c.UntracedMs) }

func (c layerCheck) ok() bool { return c.gap() <= layerSumMargin }
