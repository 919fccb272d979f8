package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompare: a pair passes when B's median is within the bound of
// A's and both spreads are; setup_s is judged on its median alone.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(spec, map[string]any{"end_to_end": []map[string]any{
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1},
	}}); err != nil {
		t.Fatal(err)
	}
	file := func(name string, setup, pass []float64) string {
		var rs results
		for _, w := range workloadNames {
			for i := range pass {
				rs.Results = append(rs.Results, &result{Workload: w, Metrics: map[string]metric{
					"setup_s": {setup[i], "s"}, "pass_s": {pass[i], "s"}}})
			}
		}
		// A traced run's values are not compared.
		rs.Results = append(rs.Results, &result{Workload: workloadNames[0], Trace: true,
			Metrics: map[string]metric{"pass_s": {100, "s"}}})
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisySetup := []float64{1, 2, 1, 0.5, 1}
	a := file("a.json", noisySetup, steady)
	for _, c := range []struct {
		name        string
		setup, pass []float64
		fail        string
	}{
		{"same", noisySetup, steady, ""},
		{"slower within bound", noisySetup, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, ""},
		{"slower beyond bound", noisySetup, []float64{1.2, 1.21, 1.19, 1.2, 1.22}, "pass_s"},
		{"too noisy", noisySetup, []float64{0.7, 1.3, 1.0, 0.8, 1.2}, "pass_s"},
		{"setup slower", []float64{2, 2, 2, 2, 2}, steady, "setup_s"},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, spec, a, file("b.json", c.setup, c.pass))
		if (err != nil) != (c.fail != "") {
			t.Errorf("%s: err = %v, want failure on %q\n%s", c.name, err, c.fail, out.String())
			continue
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasSuffix(line, "FAIL") && !strings.Contains(line, c.fail) {
				t.Errorf("%s: unexpected failure: %s", c.name, line)
			}
		}
	}
}
