package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A layer metric aggregates the spans of one name: either time per
// unit of work (total duration over total units) or the median call.
type layerDef struct {
	metric, span, unit string
	perUnit            bool
	scale              time.Duration // the unit's time scale
}

// layerDefs are the per-layer metrics BENCHMARK.json names that come
// from one span name each. The rest are computed in finishTrace and by
// the workloads' traced runs.
var layerDefs = []layerDef{
	{"workloads.build.ms", "workloads.build", "ms", true, time.Millisecond},
	{"harness.profile.ns_per_inst", "harness.profile", "ns/inst", true, time.Nanosecond},
	{"artifact.save.ms", "artifact.save", "ms", true, time.Millisecond},
	{"artifact.load_workload.us", "artifact.load_workload", "us", true, time.Microsecond},
	{"artifact.load_planes.ms", "artifact.load_planes", "ms", true, time.Millisecond},
	{"harness.annotate_caches.ns_per_inst_component", "harness.annotate_caches", "ns/inst/comp", true, time.Nanosecond},
	{"harness.annotate_branches.ns_per_inst_component", "harness.annotate_branches", "ns/inst/comp", true, time.Nanosecond},
	{"harness.explore_inputs.ns_per_inst", "harness.explore_inputs", "ns/inst", true, time.Nanosecond},
	{"harness.multi_inputs.ns_per_inst", "harness.multi_inputs", "ns/inst", true, time.Nanosecond},
	{"pipeline.batch.ns_per_inst_point", "pipeline.batch", "ns/inst/point", true, time.Nanosecond},
	{"pipeline.batch.ns_per_inst_point.w1", "pipeline.batch.w1", "ns/inst/point", true, time.Nanosecond},
	{"pipeline.batch.ns_per_inst_point.w2", "pipeline.batch.w2", "ns/inst/point", true, time.Nanosecond},
	{"pipeline.batch.ns_per_inst_point.w3", "pipeline.batch.w3", "ns/inst/point", true, time.Nanosecond},
	{"pipeline.batch.ns_per_inst_point.w4", "pipeline.batch.w4", "ns/inst/point", true, time.Nanosecond},
	{"core.predict.ns_per_point", "core.predict", "ns/point", true, time.Nanosecond},
	{"power.objectives.ns_per_point", "power.objectives", "ns/point", true, time.Nanosecond},
	{"harness.predict.ms.p50", "harness.predict", "ms", false, time.Millisecond},
	{"dse.explore_slice.ms.p50", "dse.explore_slice", "ms", false, time.Millisecond},
	{"service.handler_ms.predict.p50", "service.handler.predict", "ms", false, time.Millisecond},
	{"service.handler_ms.explore.p50", "service.handler.explore", "ms", false, time.Millisecond},
	{"service.handler_ms.ingest.p50", "service.handler.ingest", "ms", false, time.Millisecond},
}

// spanPicker selects spans by name from the traced passes, falling
// back to the probe for layers the passes did not call.
type spanPicker struct {
	spans []span
	roots []int
	probe int
}

func (sp spanPicker) pick(keep func(name string) bool) []int {
	var fromPass, fromProbe []int
	for i, s := range sp.spans {
		if !keep(s.Name) {
			continue
		}
		switch root := sp.roots[i]; {
		case sp.spans[root].Name == "pass":
			fromPass = append(fromPass, i)
		case root == sp.probe:
			fromProbe = append(fromProbe, i)
		}
	}
	if len(fromPass) > 0 {
		return fromPass
	}
	return fromProbe
}

// layerMetrics computes layerDefs into out, and returns the p50 of
// every handler span the passes recorded (or else the probe).
func layerMetrics(spans []span, probe int, out map[string]metric) (handlerP50 float64, err error) {
	sp := spanPicker{spans, rootOf(spans), probe}
	for _, d := range layerDefs {
		ids := sp.pick(func(name string) bool { return name == d.span })
		if len(ids) == 0 {
			return 0, fmt.Errorf("no %s span recorded", d.span)
		}
		var v float64
		if d.perUnit {
			var dur time.Duration
			var n float64
			for _, i := range ids {
				dur += spans[i].dur()
				n += spans[i].N
			}
			v = float64(dur) / float64(d.scale) / n
		} else {
			ds := make([]float64, len(ids))
			for j, i := range ids {
				ds[j] = float64(spans[i].dur()) / float64(d.scale)
			}
			v = median(ds)
		}
		out[d.metric] = metric{v, d.unit}
	}
	var hs []float64
	for _, i := range sp.pick(func(name string) bool { return strings.HasPrefix(name, "service.handler.") }) {
		hs = append(hs, ms(spans[i].dur()))
	}
	if len(hs) == 0 {
		return 0, fmt.Errorf("no handled request recorded")
	}
	return median(hs), nil
}

// allocMeter sums the Go heap's allocation and collection pauses over
// the intervals between start and stop.
type allocMeter struct {
	m0            runtime.MemStats
	alloc, pauses uint64
}

func (am *allocMeter) start() { runtime.ReadMemStats(&am.m0) }

func (am *allocMeter) stop() {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	am.alloc += m1.TotalAlloc - am.m0.TotalAlloc
	am.pauses += m1.PauseTotalNs - am.m0.PauseTotalNs
}

// alternate runs measure untraced and traced in pairs until at least
// two pairs ran and rc.seconds have passed. The traced run comes second
// in even pairs and first in odd ones, so that neither side gains from
// a drift over the run. It records into r the tracing overhead, from
// the medians of the two sides, and the Go heap's allocation and
// collection pauses per traced run.
func alternate(rc runConfig, r *result, measure func(traced bool) (float64, error)) error {
	var base, traced []float64
	var am allocMeter
	start := time.Now()
	for k := 0; k < 2 || time.Since(start).Seconds() < rc.seconds; k++ {
		for _, tr := range []bool{k%2 == 1, k%2 == 0} {
			if tr {
				am.start()
			}
			v, err := measure(tr)
			if tr {
				am.stop()
			}
			if err != nil {
				return err
			}
			if tr {
				traced = append(traced, v)
			} else {
				base = append(base, v)
			}
		}
	}
	r.Metrics["trace.overhead_pct"] = metric{100 * (median(traced) - median(base)) / median(base), "%"}
	r.Metrics["go.alloc_mb"] = metric{float64(am.alloc) / 1e6 / float64(len(traced)), "MB"}
	// Informational: a pass that allocates less than the heap's growth
	// allowance collects nothing and pauses for exactly 0 ms.
	r.Info["go.gc_pause_ms"] = metric{float64(am.pauses) / 1e6 / float64(len(traced)), "ms"}
	return nil
}

// finishTrace runs probe under a root of its own, then fills r with
// the per-layer metrics from t's spans and writes rc's trace file.
// probe returns the client's p50 over the requests whose handler spans
// the passes, or else the probe, recorded.
func finishTrace(rc runConfig, r *result, t *tracer, probe func(root int) (clientP50 float64, err error)) error {
	root := t.begin("probe", -1, -1)
	clientP50, err := probe(root)
	t.end(root, 0)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	spans := t.snapshot()
	handlerP50, err := layerMetrics(spans, root, r.Metrics)
	if err != nil {
		return err
	}
	// loadgen reports no per-request times, so transport is the
	// client's median less the handler's.
	r.Metrics["serve.transport_ms.p50"] = metric{clientP50 - handlerP50, "ms"}
	r.Info["serve.client_ms.p50"] = metric{clientP50, "ms"}
	r.Info["service.handler_ms.p50"] = metric{handlerP50, "ms"}
	r.Metrics["trace.coverage"] = metric{coverage(spans, "pass"), "ratio"}
	path := filepath.Join(rc.outDir, "trace-"+rc.workload+".json")
	return writeTrace(path, rc.workload, spans)
}
