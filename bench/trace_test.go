package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func sp(name string, start, end, parent int) span {
	return span{Name: name, Start: time.Duration(start), End: time.Duration(end), Parent: parent, Op: -1}
}

// TestSelfTimes: self time is duration minus the part of the interval
// the children cover, counting overlapping children once and clipping
// a child that outlives its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp("pass", 0, 100, -1),
		sp("a", 10, 40, 0), // overlaps b
		sp("b", 30, 60, 0),
		sp("c", 80, 90, 0),
		sp("a.1", 15, 20, 1), // nested under a
		sp("d", 95, 120, 0),  // runs past the parent's end
	}
	want := []time.Duration{100 - 50 - 10 - 5, 30 - 5, 30, 10, 5, 25}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestCoverage: the share of the ops' time inside layer spans, over
// every root of one name, with overlapping layer spans counted once
// and spans of other roots and grouping spans ignored.
func TestCoverage(t *testing.T) {
	spans := []span{
		sp("pass", 0, 200, -1),
		sp("op", 0, 100, 0),
		sp("layer.x", 10, 50, 1),
		sp("layer.y", 40, 70, 1), // overlaps x: [10, 70] covered
		sp("layer.z", 20, 30, 2), // inside x, adds nothing
		sp("op", 100, 200, 0),
		sp("layer.x", 100, 200, 5),
		sp("probe", 200, 300, -1),
		sp("op", 200, 300, 7),
		sp("layer.x", 200, 210, 8),
		sp("pass", 300, 400, -1),
		sp("op", 300, 400, 10),
		sp("layer.x", 300, 340, 11),
	}
	if got, want := coverage(spans, "pass"), (60.0+100+40)/300; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage(pass) = %v, want %v", got, want)
	}
	if got, want := coverage(spans, "probe"), 0.1; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage(probe) = %v, want %v", got, want)
	}
}

// TestLayerMetrics: a layer's spans come from the passes when the
// passes called it and from the probe otherwise.
func TestLayerMetrics(t *testing.T) {
	var spans []span
	add := func(name string, start, end, parent int, n float64) int {
		s := sp(name, start, end, parent)
		s.N = n
		spans = append(spans, s)
		return len(spans) - 1
	}
	pass := add("pass", 0, 100, -1, 1)
	add("service.handler.predict", 0, 4e6, pass, 1)
	add("service.handler.predict", 0, 6e6, pass, 1)
	probe := add("probe", 100, 200, -1, 0)
	add("service.handler.predict", 0, 50e6, probe, 1)
	add("harness.profile", 0, 1000, probe, 100)
	for _, d := range layerDefs {
		if d.span != "service.handler.predict" && d.span != "harness.profile" {
			add(d.span, 0, 1e6, probe, 1)
		}
	}
	out := map[string]metric{}
	handlerP50, err := layerMetrics(spans, probe, out)
	if err != nil {
		t.Fatal(err)
	}
	if v := out["service.handler_ms.predict.p50"].Value; v != 5 {
		t.Errorf("handler p50 %v ms, want 5 (the passes' spans, not the probe's)", v)
	}
	if handlerP50 != 5 {
		t.Errorf("all-handler p50 %v ms, want 5", handlerP50)
	}
	if v := out["harness.profile.ns_per_inst"].Value; v != 10 {
		t.Errorf("profile %v ns/inst, want 1000 ns over 100 instructions", v)
	}
	if len(out) != len(layerDefs) {
		t.Errorf("%d metrics, want %d", len(out), len(layerDefs))
	}
}

// TestTracerConcurrent records spans from many goroutines at once, as
// the serve workload's client and handler do.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", -1, -1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = tr.run("layer", root, g, func() (float64, error) { return 1, nil })
			}
		}()
	}
	wg.Wait()
	tr.end(root, 0)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("%d spans, want 801", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Parent != root || s.End < s.Start || s.N != 1 {
			t.Fatalf("bad span %+v", s)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, -1); id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	nilTracer.end(-1, 1)
}
