package dse

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func TestSpaceIsTable2(t *testing.T) {
	space := Space(uarch.Default())
	if len(space) != 192 {
		t.Fatalf("space has %d points, want 192 (3 depth × 4 width × 4 L2 sizes × 2 ways × 2 predictors)", len(space))
	}
	seen := map[string]bool{}
	widths := map[int]bool{}
	l2s := map[int64]bool{}
	preds := map[uarch.PredictorKind]bool{}
	stages := map[int]bool{}
	for _, c := range space {
		if err := c.Validate(); err != nil {
			t.Errorf("invalid point %s: %v", c.Name, err)
		}
		if seen[c.Name] {
			t.Errorf("duplicate point name %q", c.Name)
		}
		seen[c.Name] = true
		widths[c.Width] = true
		l2s[c.Hier.L2.SizeBytes] = true
		preds[c.Predictor] = true
		stages[c.PipelineStages()] = true
	}
	if len(widths) != 4 || len(l2s) != 4 || len(preds) != 2 || len(stages) != 3 {
		t.Errorf("axes coverage: widths=%d l2=%d preds=%d stages=%d", len(widths), len(l2s), len(preds), len(stages))
	}
}

func profiled(t *testing.T, name string) *harness.Profiled {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

func TestExploreModelOnly(t *testing.T) {
	pw := profiled(t, "gsm_c")
	space := Space(uarch.Default())[:24] // one depth point, all widths/L2s/preds
	pts, err := ExploreCtx(context.Background(), pw, space, power.NewModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(space) {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.ModelCPI <= 0 || p.ModelEDP <= 0 || p.ModelSecs <= 0 {
			t.Errorf("point %s: %+v", p.Cfg.Name, p)
		}
		if p.Sim != nil {
			t.Errorf("model-only exploration filled simulation fields")
		}
	}
	// Wider configurations at otherwise equal parameters must not
	// predict more cycles.
	byName := map[string]Point{}
	for _, p := range pts {
		byName[p.Cfg.Name] = p
	}
	w1 := byName["d5-w1-l2_512k_8w-gshare-1KB"]
	w4 := byName["d5-w4-l2_512k_8w-gshare-1KB"]
	if w4.ModelCycles >= w1.ModelCycles {
		t.Errorf("W=4 (%f cycles) not faster than W=1 (%f)", w4.ModelCycles, w1.ModelCycles)
	}
}

func TestExploreValidatedAgreesWithModel(t *testing.T) {
	pw := profiled(t, "tiff2bw")
	space := Space(uarch.Default())
	// Subsample the space for test speed: every 16th point.
	var sub []uarch.Config
	for i := 0; i < len(space); i += 16 {
		sub = append(sub, space[i])
	}
	pts, err := ExploreValidatedCtx(context.Background(), pw, sub, power.NewModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Sim == nil {
			t.Fatalf("point %s missing simulation", p.Cfg.Name)
		}
		if p.CPIErr > 0.20 {
			t.Errorf("point %s: model error %.1f%% too large (model %.3f sim %.3f)",
				p.Cfg.Name, 100*p.CPIErr, p.ModelCPI, p.SimCPI)
		}
		if p.SimEDP <= 0 {
			t.Errorf("point %s: bad detailed EDP", p.Cfg.Name)
		}
	}
}

// TestExploreSingleReplay pins the headline of this optimisation: the
// full 192-point Table 2 exploration costs exactly one trace replay
// for machine statistics.
func TestExploreSingleReplay(t *testing.T) {
	pw := profiled(t, "sha")
	space := Space(uarch.Default())
	if _, err := ExploreCtx(context.Background(), pw, space, power.NewModel()); err != nil {
		t.Fatal(err)
	}
	if got := pw.Counters().StatsTraversals; got != 1 {
		t.Errorf("Explore over %d points took %d trace replays, want 1", len(space), got)
	}
}

// TestExploreValidatedAnnotatesOnce pins the annotation-plane economy
// of the validated exploration: the full 192-point Table 2 sweep
// annotates the trace exactly once per distinct cache hierarchy (8:
// four L2 sizes × two associativities) and once per distinct branch
// predictor (2), and a repeated sweep on the same Profiled reuses the
// cached planes without any further annotation work.
func TestExploreValidatedAnnotatesOnce(t *testing.T) {
	pw := profiled(t, "gsm_c")
	space := Space(uarch.Default())
	if _, err := ExploreValidatedCtx(context.Background(), pw, space, power.NewModel(), 2); err != nil {
		t.Fatal(err)
	}
	if got := pw.Counters().CacheAnnotations; got != 8 {
		t.Errorf("validated exploration annotated %d hierarchies, want 8 (one per distinct hierarchy)", got)
	}
	if got := pw.Counters().BranchAnnotations; got != 2 {
		t.Errorf("validated exploration annotated %d predictors, want 2 (one per distinct predictor)", got)
	}
	before := pw.Counters()
	if _, err := ExploreValidatedCtx(context.Background(), pw, space, power.NewModel(), 2); err != nil {
		t.Fatal(err)
	}
	if c, b := pw.Counters().CacheAnnotations-before.CacheAnnotations, pw.Counters().BranchAnnotations-before.BranchAnnotations; c != 0 || b != 0 {
		t.Errorf("repeated exploration re-annotated (%d hierarchies, %d predictors), want cached planes", c, b)
	}
}

// TestExploreValidatedCountsPerWorkload pins that the annotation
// counts belong to one workload, not to the process: two Fresh copies
// of one Profiled sweeping Table 2 at the same time each annotate the
// 8 hierarchies and 2 predictors once, and a repeat sweep on either
// annotates nothing more.
func TestExploreValidatedCountsPerWorkload(t *testing.T) {
	pw := profiled(t, "crc32")
	space := Space(uarch.Default())
	copies := []*harness.Profiled{pw.Fresh(), pw.Fresh()}
	sweep := func(c *harness.Profiled) error {
		_, err := ExploreValidatedCtx(context.Background(), c, space, power.NewModel(), 2)
		return err
	}
	errs := make(chan error, len(copies))
	for _, c := range copies {
		go func() { errs <- sweep(c) }()
	}
	for range copies {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range copies {
		if got := c.Counters(); got.CacheAnnotations != 8 || got.BranchAnnotations != 2 {
			t.Errorf("copy %d annotated %d hierarchies and %d predictors, want 8 and 2", i, got.CacheAnnotations, got.BranchAnnotations)
		}
	}
	for i, c := range copies {
		before := c.Counters()
		if err := sweep(c); err != nil {
			t.Fatal(err)
		}
		if got := c.Counters(); got.CacheAnnotations != before.CacheAnnotations || got.BranchAnnotations != before.BranchAnnotations {
			t.Errorf("a repeat sweep on copy %d annotated %d hierarchies and %d predictors more, want 0", i,
				got.CacheAnnotations-before.CacheAnnotations, got.BranchAnnotations-before.BranchAnnotations)
		}
	}
	if got := pw.Counters(); got != (harness.Counters{}) {
		t.Errorf("the copies' work was counted on the original: %+v", got)
	}
}

// TestExploreValidatedMatchesDirectSimulate verifies the annotated
// fast path changes nothing observable in the validated exploration:
// every simulation field must be bit-identical to running
// pipeline.Simulate directly at that point.
func TestExploreValidatedMatchesDirectSimulate(t *testing.T) {
	pw := profiled(t, "dijkstra")
	space := Space(uarch.Default())
	var sub []uarch.Config
	for i := 0; i < len(space); i += 13 {
		sub = append(sub, space[i])
	}
	pts, err := ExploreValidatedCtx(context.Background(), pw, sub, power.NewModel(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		want, err := pipeline.Simulate(pw.Trace, p.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *p.Sim != want {
			t.Errorf("%s: annotated result diverges:\n got  %+v\n want %+v", p.Cfg.Name, *p.Sim, want)
		}
		if p.SimCPI != want.CPI() {
			t.Errorf("%s: SimCPI %v != %v", p.Cfg.Name, p.SimCPI, want.CPI())
		}
	}
}

// TestExploreMatchesPerConfigPath verifies the single-pass engine
// changes nothing observable: model CPI, cycles and EDP must be
// bit-identical to evaluating each point from a dedicated
// per-configuration trace replay (the seed code path, still available
// as harness.MachineStatsCtx).
func TestExploreMatchesPerConfigPath(t *testing.T) {
	pw := profiled(t, "gsm_c")
	space := Space(uarch.Default())
	var sub []uarch.Config
	for i := 0; i < len(space); i += 7 {
		sub = append(sub, space[i])
	}
	pm := power.NewModel()
	pts, err := ExploreCtx(context.Background(), pw, sub, pm)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range sub {
		in, err := pw.InputsCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.Predict(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev := power.EventsFrom(in.Prof, in.Mem, in.Branch)
		edp, err := pm.EDP(ev, cfg, st.Total())
		if err != nil {
			t.Fatal(err)
		}
		p := pts[i]
		if p.ModelCPI != st.CPI() || p.ModelCycles != st.Total() || p.ModelEDP != edp {
			t.Errorf("%s: single-pass point diverges from per-config replay:\n got  CPI=%v cycles=%v EDP=%v\n want CPI=%v cycles=%v EDP=%v",
				cfg.Name, p.ModelCPI, p.ModelCycles, p.ModelEDP, st.CPI(), st.Total(), edp)
		}
	}
}

func TestBestEDP(t *testing.T) {
	pts := []Point{
		{ModelEDP: 3, SimEDP: 5},
		{ModelEDP: 1, SimEDP: 9},
		{ModelEDP: 2, SimEDP: 4},
	}
	m, s := BestEDP(pts)
	if m != 1 {
		t.Errorf("model best = %d, want 1", m)
	}
	if s != -1 {
		t.Errorf("sim best = %d, want -1 (no sim results)", s)
	}
	r := pipelineResultStub()
	pts[2].Sim = &r
	pts[0].Sim = &r
	if _, s = BestEDP(pts); s != 2 {
		t.Errorf("sim best = %d, want 2", s)
	}
}

func pipelineResultStub() pipeline.Result { return pipeline.Result{} }
