package pipeline_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// goldenSimulateFile pins every Result field of the detailed simulator
// over a corpus of traces and point lists. It was generated by the
// verbatim seed simulator (since deleted) and checked against both it
// and Simulate in the commit that added it, so it is the reference
// answer Simulate is held to; it must not be re-pinned by a change that
// claims bit-identical timing.
const goldenSimulateFile = "testdata/golden_simulate.json"

// goldenSimulate is the file: a header naming where its digests came
// from, then one entry per (trace, point list).
type goldenSimulate struct {
	Generated string                `json:"generated"`
	Entries   []goldenSimulateEntry `json:"entries"`
}

// goldenSimulateEntry digests one trace's results over one point list.
type goldenSimulateEntry struct {
	Trace   string `json:"trace"`
	Points  string `json:"points"`
	Len     int64  `json:"len"`
	Results string `json:"results_sha256"`
}

// goldenSimulateCase is one entry to compute: a program and the name
// of a point list.
type goldenSimulateCase struct {
	trace  string
	points string
	build  func() *program.Program
}

// goldenPointLists are the point lists the entries name: the default
// configuration, every Table 2 point, and a 36-point spread over depth,
// width, L2 size and predictor.
func goldenPointLists() map[string][]uarch.Config {
	base := uarch.Default()
	var spread []uarch.Config
	for _, df := range uarch.DepthFreqPoints() {
		for _, w := range []int{1, 2, 4} {
			for _, l2kb := range []int{128, 1024} {
				for _, pk := range []uarch.PredictorKind{uarch.PredGShare1KB, uarch.PredHybrid3_5KB} {
					spread = append(spread, base.WithDepth(df).WithWidth(w).WithL2(l2kb, 8).WithPredictor(pk))
				}
			}
		}
	}
	return map[string][]uarch.Config{
		"default": {base},
		"table2":  dse.Space(base),
		"spread":  spread,
	}
}

// goldenSimulateCases lists the entries in file order: four named
// workloads over the spread; short seeded programs and two named
// workloads at the default point; sha over Table 2; and seeded
// programs 1–40, 105 and 231 at their default size over Table 2
// (seeds 10, 105 and 231 are ones where the annotated fast path and
// Simulate disagree).
func goldenSimulateCases(t *testing.T) []goldenSimulateCase {
	t.Helper()
	named := func(name string) func() *program.Program {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Build
	}
	seeded := func(cfg randprog.Config) func() *program.Program {
		return func() *program.Program { return randprog.Generate(cfg) }
	}
	var cs []goldenSimulateCase
	for _, name := range []string{"sha", "dijkstra", "gsm_c", "mcf_like"} {
		cs = append(cs, goldenSimulateCase{name, "spread", named(name)})
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := randprog.Default(seed)
		cfg.OuterTrips = 20
		cs = append(cs, goldenSimulateCase{fmt.Sprintf("randprog-%d-trips20", seed), "default", seeded(cfg)})
	}
	for _, name := range []string{"sha", "dijkstra"} {
		cs = append(cs, goldenSimulateCase{name, "default", named(name)})
	}
	cs = append(cs, goldenSimulateCase{"sha", "table2", named("sha")})
	seeds := []int64{}
	for seed := int64(1); seed <= 40; seed++ {
		seeds = append(seeds, seed)
	}
	for _, seed := range append(seeds, 105, 231) {
		cs = append(cs, goldenSimulateCase{fmt.Sprintf("randprog-%d", seed), "table2", seeded(randprog.Default(seed))})
	}
	return cs
}

// simulateAll runs Simulate on tr at every point of cfgs.
func simulateAll(t *testing.T, tr *trace.Trace, cfgs []uarch.Config) []pipeline.Result {
	t.Helper()
	out := make([]pipeline.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := pipeline.Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestSimulateGolden checks the detailed simulator's results on the
// golden corpus against the committed digests, one subtest per entry.
func TestSimulateGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenSimulateFile)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenSimulate
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := goldenSimulateCases(t)
	if len(cases) != len(want.Entries) {
		t.Fatalf("%s has %d entries, the test computes %d", goldenSimulateFile, len(want.Entries), len(cases))
	}
	lists := goldenPointLists()
	for i, c := range cases {
		w := want.Entries[i]
		t.Run(fmt.Sprintf("%s/%s", c.trace, c.points), func(t *testing.T) {
			t.Parallel()
			pw, err := harness.ProfileProgram(c.build())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenSimulateEntry{Trace: c.trace, Points: c.points, Len: pw.Trace.Len(),
				Results: resultsDigest(t, simulateAll(t, pw.Trace, lists[c.points]))}
			if got != w {
				t.Errorf("entry %d:\n got  %+v\n want %+v", i, got, w)
			}
		})
	}
}
