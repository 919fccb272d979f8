package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// untraced returns the values of metric over the untraced runs of
// workload.
func (rs results) untraced(workload, name string) []float64 {
	var out []float64
	for _, r := range rs.Results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareFiles prints, for every end-to-end metric and workload, the
// median, quartiles and spread of the runs in a and in b, and passes
// the pair when b's median is no worse than a's by more than the
// metric's bound and, except for setup_s, both spreads are within it.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b results
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-14s %-12s %-36s %-36s %8s %6s\n", "workload", "metric", "A median [q1 q3] spread", "B median [q1 q3] spread", "worse", "bound")
	for _, wl := range workloadNames {
		for _, m := range spec.EndToEnd {
			va, vb := a.untraced(wl, m.Name), b.untraced(wl, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-12s missing (A %d runs, B %d runs) FAIL\n", wl, m.Name, len(va), len(vb))
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			ok := worse <= m.Bound
			if m.Name != "setup_s" {
				ok = ok && spread(va) <= m.Bound && spread(vb) <= m.Bound
			}
			verdict := "pass"
			if !ok {
				verdict = "FAIL"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", wl, m.Name,
				describe(va, m.Unit), describe(vb, m.Unit), 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric-workload pairs outside their bounds", bad)
	}
	return nil
}

func describe(xs []float64, unit string) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g %.4g] %.1f%%", median(xs), unit, q1, q3, 100*spread(xs))
}
