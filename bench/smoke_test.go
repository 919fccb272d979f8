package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// toyConfig shrinks a run to at most two programs, one pass and
// half-second windows, keeping seed-1 programs the golden file pins.
func toyConfig(t *testing.T, workload string, trace bool, loadgen string) runConfig {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	rc := defaultConfig(workload, 1, 0, trace)
	rc.named, rc.randoms = 1, min(rc.randoms, 1)
	rc.minPasses, rc.setups, rc.setupMin = 1, 1, 0
	rc.windows, rc.window, rc.closedWindow = 1, time.Second/2, time.Second/2
	rc.workDir, rc.outDir, rc.golden, rc.loadgen = t.TempDir(), t.TempDir(), g, loadgen
	return rc
}

// TestSmoke runs every workload at toy size untraced, and the cold
// exploration and the service traced, side by side: every output check
// must pass and every metric BENCHMARK.json names must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/loadgen and runs every workload")
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	loadgen := filepath.Join(t.TempDir(), "loadgen")
	if out, err := exec.Command("go", "build", "-o", loadgen, "repro/cmd/loadgen").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/loadgen: %v\n%s", err, out)
	}
	runs := []struct {
		workload string
		trace    bool
	}{
		{"explore-cold", false}, {"explore-warm", false}, {"explore-model", false}, {"serve-mixed", false},
		{"explore-cold", true}, {"serve-mixed", true},
	}
	for _, c := range runs {
		t.Run(fmt.Sprintf("%s/trace=%v", c.workload, c.trace), func(t *testing.T) {
			t.Parallel()
			r, err := runOne(context.Background(), toyConfig(t, c.workload, c.trace, loadgen))
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct {
				t.Fatalf("%d of %d operations failed", r.Failed, r.Attempted)
			}
			want := spec.EndToEnd
			if c.trace {
				want = spec.PerLayer
			}
			for _, m := range want {
				if _, ok := r.Metrics[m.Name]; !ok {
					t.Errorf("no %s", m.Name)
				}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%d metrics, want the %d BENCHMARK.json names", len(r.Metrics), len(want))
			}
		})
	}
}
