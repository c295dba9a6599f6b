package main

import (
	"testing"
	"time"
)

func TestSelfTimesAndLayerSum(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 5 * ms, End: 45 * ms},
		{ID: 3, Parent: 2, Op: 1, Name: "a.child", Start: 10 * ms, End: 20 * ms},
		{ID: 4, Parent: 1, Op: 1, Name: "b", Start: 40 * ms, End: 90 * ms}, // overlaps a
		{ID: 5, Op: 5, Name: "other op", Start: 0, End: 7 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 15 * ms, 2: 30 * ms, 3: 10 * ms, 4: 50 * ms, 5: 7 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	if got := layerSum(spans, 1); got != 90*ms {
		t.Errorf("layerSum = %v, want 90ms (the op's 100ms minus 15ms of glue, plus the 5ms the overlapping layers share)", got)
	}
}

func TestLayerCheck(t *testing.T) {
	c := layerCheck{UntracedMs: []float64{100, 104, 96}, TracedMs: []float64{103, 101, 102}, LayerSumMs: []float64{99, 98, 97}}
	if g := c.gap(); g != 0.02 {
		t.Errorf("gap = %g, want 0.02", g)
	}
	if o := c.overheadMs(); o != 2 {
		t.Errorf("overhead = %g, want 2", o)
	}
	if !c.ok() {
		t.Error("a 2% gap failed the check")
	}
	c.LayerSumMs = []float64{70, 70, 70}
	if c.ok() {
		t.Errorf("a %.0f%% gap passed a %.0f%% margin", 100*c.gap(), 100*layerSumMargin)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	root := tr.begin("op", 0, 0)
	d, err := tr.layer(root, "layer", func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil || d < time.Millisecond || root.end() != 0 || tr.snapshot() != nil {
		t.Errorf("nil tracer: d=%v err=%v", d, err)
	}
}
