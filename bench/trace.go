package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, or a grouping of such calls ("pass",
// "op", "probe"). Times are offsets from the tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	Op     int           `json:"op"`     // the program or request the span serves, -1 for none
	N      float64       `json:"n"`      // units of work the call did (instructions, points, ...)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths can share call sites.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int, n float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].N = n
}

// run records f as one span; f returns the units of work it did.
func (t *tracer) run(name string, parent, op int, f func() (float64, error)) error {
	id := t.begin(name, parent, op)
	n, err := f()
	t.end(id, n)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// covered returns the length of the union of the intervals, each
// clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var cl [][2]time.Duration
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			cl = append(cl, [2]time.Duration{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range cl {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Overlapping children (concurrent
// requests under one batch) are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(kids[i], s.Start, s.End)
	}
	return out
}

// grouping reports whether a span only groups layer calls rather than
// being one.
func grouping(name string) bool { return name == "pass" || name == "op" || name == "probe" }

// rootOf maps every span to the root it descends from.
func rootOf(spans []span) []int {
	out := make([]int, len(spans))
	for i, s := range spans {
		out[i] = i
		if s.Parent >= 0 {
			out[i] = out[s.Parent] // parents are always opened first
		}
	}
	return out
}

// coverage is the share of the operations' time spent inside calls
// into layers: for every "op" span under a root named rootName, the
// union of the layer spans beneath it, over the ops' total duration.
func coverage(spans []span, rootName string) float64 {
	roots := rootOf(spans)
	under := func(i int) bool { return spans[roots[i]].Name == rootName }
	opOf := make([]int, len(spans)) // nearest "op" ancestor, -1 for none
	iv := make(map[int][][2]time.Duration)
	for i, s := range spans {
		opOf[i] = -1
		if p := s.Parent; p >= 0 {
			opOf[i] = opOf[p]
			if spans[p].Name == "op" {
				opOf[i] = p
			}
		}
		if under(i) && opOf[i] >= 0 && !grouping(s.Name) {
			iv[opOf[i]] = append(iv[opOf[i]], [2]time.Duration{s.Start, s.End})
		}
	}
	var cov, total time.Duration
	for i, s := range spans {
		if under(i) && s.Name == "op" {
			total += s.dur()
			cov += covered(iv[i], s.Start, s.End)
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// writeTrace writes the spans with their self times as JSON.
func writeTrace(path, workload string, spans []span) error {
	type rec struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	self := selfTimes(spans)
	recs := make([]rec, len(spans))
	for i, s := range spans {
		recs[i] = rec{s, self[i]}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []rec  `json:"spans"`
	}{workload, recs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
