// Package experiments reproduces every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index). Each
// experiment is a plain function returning structured results plus a
// text renderer, so the CLI (cmd/experiments), the test suite and the
// benchmark harness (bench_test.go) all share one implementation.
package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/ooo"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// profiledPool avoids re-profiling and re-executing workloads across
// experiments in one process (profiling is the dominant cost, as in
// the paper): Fig3/Fig6 and the sweep figures share benchmarks — and,
// through the Profiled value, annotation planes and trace — via this
// process-wide cache. It is an unbounded harness.Pool, so the batch
// figures get the same singleflight admission the modeld service
// uses: concurrent first requests for the same name wait for one
// profiling run instead of racing duplicate executions, and every
// figure shares the one per-benchmark plane cache. Failed profiling
// runs are not cached; a later call retries.
//
// When REPRO_ARTIFACT_DIR is set, the pool additionally persists over
// that content-addressed artifact store: profiling survives process
// restarts, so repeated figure/benchmark runs (scripts/bench.sh, the
// CI cache) skip workload execution entirely — bit-identically, which
// the BENCH drift gate depends on. An unopenable directory falls back
// to the in-memory pool rather than failing the experiments.
var profiledPool = newProfiledPool()

func newProfiledPool() *harness.Pool {
	opt := harness.PoolOptions{}
	if dir := os.Getenv("REPRO_ARTIFACT_DIR"); dir != "" {
		if store, err := artifact.Open(dir); err == nil {
			opt.Store = store
		}
	}
	return harness.NewPool(opt)
}

// Profiled returns the profiled workload, building and caching it.
func Profiled(name string) (*harness.Profiled, error) {
	spec, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return profiledPool.GetBuiltCtx(context.Background(), name, spec.Build, func(_ context.Context, prog *program.Program) (*harness.Profiled, error) {
		return harness.ProfileProgram(prog)
	})
}

// ---------------------------------------------------------------------------
// Figure 3 / Figure 6: model-versus-simulator CPI validation
// ---------------------------------------------------------------------------

// ValidationRow is one benchmark's validation result.
type ValidationRow struct {
	Name     string
	N        int64
	ModelCPI float64
	SimCPI   float64
	AbsErr   float64
}

// ValidationResult is a Figure 3/6-style validation across a suite.
type ValidationResult struct {
	Cfg     uarch.Config
	Rows    []ValidationRow
	Summary stats.Summary // of AbsErr
}

// Validate runs model and detailed simulation on every named benchmark
// with the given configuration, in parallel across benchmarks.
func Validate(names []string, cfg uarch.Config) (*ValidationResult, error) {
	res := &ValidationResult{Cfg: cfg, Rows: make([]ValidationRow, len(names))}
	err := par.ForEachCtx(context.Background(), 0, len(names), func(i int) error {
		name := names[i]
		pw, err := Profiled(name)
		if err != nil {
			return err
		}
		v, err := pw.Validate(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Rows[i] = ValidationRow{
			Name: name, N: pw.Prof.N,
			ModelCPI: v.ModelCPI, SimCPI: v.SimCPI, AbsErr: v.AbsErr(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	errs := make([]float64, len(res.Rows))
	for i, row := range res.Rows {
		errs[i] = row.AbsErr
	}
	res.Summary = stats.Summarize(errs)
	return res, nil
}

// MiBenchNames returns the 19 MiBench-like benchmark names in Figure 3
// order.
func MiBenchNames() []string {
	var out []string
	for _, s := range workloads.MiBench() {
		out = append(out, s.Name)
	}
	return out
}

// SpecNames returns the SPEC-like benchmark names (Figure 6).
func SpecNames() []string {
	var out []string
	for _, s := range workloads.SpecLike() {
		out = append(out, s.Name)
	}
	return out
}

// Fig3 validates the MiBench suite on the default configuration.
func Fig3() (*ValidationResult, error) {
	return Validate(MiBenchNames(), uarch.Default())
}

// Fig6 validates the SPEC-like suite on the default configuration.
func Fig6() (*ValidationResult, error) {
	return Validate(SpecNames(), uarch.Default())
}

// Render formats the validation as the paper's bar-chart data.
func (r *ValidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI validation on %s\n", r.Cfg)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %8s\n", "benchmark", "N", "model", "detailed", "err")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %10d %10.4f %10.4f %7.2f%%\n",
			row.Name, row.N, row.ModelCPI, row.SimCPI, 100*row.AbsErr)
	}
	fmt.Fprintf(&b, "average error %.2f%%, max %.2f%%\n",
		100*r.Summary.Mean, 100*r.Summary.Max)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 4: CPI stacks versus superscalar width
// ---------------------------------------------------------------------------

// Fig4Names are the three benchmarks the paper picks for width scaling:
// most (sha), least (dijkstra) and middling (tiffdither) width benefit.
func Fig4Names() []string { return []string{"sha", "tiffdither", "dijkstra"} }

// WidthStack is a CPI stack at one width plus the detailed reference.
type WidthStack struct {
	Width  int
	Stack  *core.Stack
	SimCPI float64
}

// Fig4Result holds per-benchmark width sweeps.
type Fig4Result struct {
	Benchmarks map[string][]WidthStack
	Order      []string
}

// Fig4 sweeps width 1..4 on the default configuration. Benchmarks run
// in parallel; machine statistics are collected once per benchmark
// (they are width-independent) and shared by all four model
// evaluations.
func Fig4() (*Fig4Result, error) {
	res := &Fig4Result{Benchmarks: map[string][]WidthStack{}, Order: Fig4Names()}
	base := uarch.Default()
	const widths = 4
	rows := make([][]WidthStack, len(res.Order))
	err := par.ForEachCtx(context.Background(), 0, len(res.Order), func(bi int) error {
		pw, err := Profiled(res.Order[bi])
		if err != nil {
			return err
		}
		in, err := pw.InputsCtx(context.Background(), base)
		if err != nil {
			return err
		}
		// The width sweep stays on one worker: the benchmark fan-out
		// above already consumes the worker budget, and nesting pools
		// would multiply concurrency past the -workers contract. All
		// four widths share one hierarchy and predictor, so the
		// annotation is computed once and the widths replay together.
		cfgs := make([]uarch.Config, widths)
		for wi := range cfgs {
			cfgs[wi] = base.WithWidth(wi + 1)
		}
		sims, err := pw.SimulateDetailedBatchCtx(context.Background(), cfgs, 1)
		if err != nil {
			return err
		}
		ws := make([]WidthStack, widths)
		for wi, cfg := range cfgs {
			st, err := core.Predict(in, cfg)
			if err != nil {
				return err
			}
			ws[wi] = WidthStack{Width: wi + 1, Stack: st, SimCPI: sims[wi].CPI()}
		}
		rows[bi] = ws
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range res.Order {
		res.Benchmarks[name] = rows[bi]
	}
	return res, nil
}

// Render formats Figure 4's stacks with the paper's component grouping.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPI stacks vs superscalar width (model), detailed CPI as reference\n")
	fmt.Fprintf(&b, "%-12s %2s %8s %8s %8s %8s %8s %8s %8s %8s | %8s %8s\n",
		"benchmark", "W", "base", "mul/div", "l2acc", "l2miss", "bpmiss", "bptaken", "tlb", "deps", "CPI", "detail")
	for _, name := range r.Order {
		for _, ws := range r.Benchmarks[name] {
			s := ws.Stack
			fmt.Fprintf(&b, "%-12s %2d %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %8.4f %8.4f\n",
				name, ws.Width,
				s.CPIOf(core.Base), s.CPIOf(core.MulDiv), s.L2Access(), s.L2Miss(),
				s.CPIOf(core.BrMiss), s.CPIOf(core.BrTaken), s.TLB(), s.Deps(),
				s.CPI(), ws.SimCPI)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 2 / Figure 5: design-space accuracy CDF
// ---------------------------------------------------------------------------

// validatedCache memoizes full Table 2 validated explorations per
// benchmark: Figure 5 and Figure 9 share benchmarks, and the detailed
// 192-point sweep is by far the most expensive computation in the
// suite. Results are deterministic, so sharing is observation-free.
// Each entry records the wall time of its one computation, so callers
// report the sweep's true cost independent of cache state and call
// order.
type validatedEntry struct {
	pts     []dse.Point
	elapsed time.Duration
}

var (
	validatedMu    sync.Mutex
	validatedCache = map[string]validatedEntry{}
)

// validatedTable2 returns the detailed-simulation-validated exploration
// of the full Table 2 space for one benchmark — computed at most once
// per process — along with the wall time that one computation took.
func validatedTable2(name string, workers int) ([]dse.Point, time.Duration, error) {
	validatedMu.Lock()
	e, ok := validatedCache[name]
	validatedMu.Unlock()
	if ok {
		return e.pts, e.elapsed, nil
	}
	pw, err := Profiled(name)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	pts, err := dse.ExploreValidatedCtx(context.Background(), pw, dse.Space(uarch.Default()), power.NewModel(), workers)
	if err != nil {
		return nil, 0, err
	}
	e = validatedEntry{pts: pts, elapsed: time.Since(t0)}
	validatedMu.Lock()
	if prev, ok := validatedCache[name]; ok {
		e = prev
	} else {
		validatedCache[name] = e
	}
	validatedMu.Unlock()
	return e.pts, e.elapsed, nil
}

// Fig5Result is the design-space validation.
type Fig5Result struct {
	Points     int
	Benchmarks int
	Errors     []float64 // one per (benchmark, design point)
	Summary    stats.Summary
	FracBelow6 float64
	ModelWall  time.Duration // wall time spent in model evaluation (all points)
	SimWall    time.Duration // wall time spent in detailed simulation
}

// Fig5 validates the model across the full Table 2 space for the given
// benchmarks (nil means all MiBench), using `workers` parallel
// simulations. Profiling and the model-only exploration run in
// parallel across benchmarks; each detailed-simulation sweep is itself
// parallel across design points.
func Fig5(names []string, workers int) (*Fig5Result, error) {
	if names == nil {
		names = MiBenchNames()
	}
	space := dse.Space(uarch.Default())
	pm := power.NewModel()
	res := &Fig5Result{Points: len(space), Benchmarks: len(names)}

	pws := make([]*harness.Profiled, len(names))
	if err := par.ForEachCtx(context.Background(), workers, len(names), func(i int) error {
		pw, err := Profiled(names[i])
		if err != nil {
			return err
		}
		pws[i] = pw
		return nil
	}); err != nil {
		return nil, err
	}

	// SimWall sums the recorded cost of each benchmark's one-time
	// validated sweep, so the headline model-vs-simulation ratio is
	// independent of what an earlier Fig5/Fig9 call already memoized.
	perBench := make([][]dse.Point, len(names))
	for i, name := range names {
		pts, elapsed, err := validatedTable2(name, workers)
		if err != nil {
			return nil, err
		}
		perBench[i] = pts
		res.SimWall += elapsed
	}

	t1 := time.Now()
	if _, err := dse.ExploreSuiteCtx(context.Background(), pws, space, pm, workers); err != nil {
		return nil, err
	}
	res.ModelWall = time.Since(t1)

	for _, pts := range perBench {
		for _, p := range pts {
			res.Errors = append(res.Errors, p.CPIErr)
		}
	}
	res.Summary = stats.Summarize(res.Errors)
	res.FracBelow6 = stats.FractionBelow(res.Errors, 0.06)
	return res, nil
}

// Render formats the CDF and headline numbers of Figure 5.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Design-space validation: %d points x %d benchmarks = %d samples\n",
		r.Points, r.Benchmarks, len(r.Errors))
	fmt.Fprintf(&b, "avg err %.2f%%  max %.2f%%  p90 %.2f%%  fraction below 6%%: %.1f%%\n",
		100*r.Summary.Mean, 100*r.Summary.Max, 100*r.Summary.P90, 100*r.FracBelow6)
	fmt.Fprintf(&b, "cumulative distribution of |error|:\n")
	for _, x := range []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10} {
		frac := stats.FractionBelow(r.Errors, x)
		fmt.Fprintf(&b, "  <=%4.0f%%: %5.1f%% %s\n", 100*x, 100*frac,
			strings.Repeat("#", int(frac*40)))
	}
	if r.ModelWall > 0 {
		fmt.Fprintf(&b, "wall time: detailed simulation %v, model evaluation %v (speedup %.0fx)\n",
			r.SimWall.Round(time.Millisecond), r.ModelWall.Round(time.Millisecond),
			float64(r.SimWall)/float64(r.ModelWall))
	}
	return b.String()
}

// Table2 renders the design space itself.
func Table2() string {
	var b strings.Builder
	space := dse.Space(uarch.Default())
	fmt.Fprintf(&b, "Table 2 design space: %d points\n", len(space))
	for _, c := range space {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: in-order versus out-of-order CPI stacks
// ---------------------------------------------------------------------------

// Fig7Names are the paper's thirteen comparison benchmarks (toast is
// the GSM encoder, cjpeg/djpeg the JPEG pair).
func Fig7Names() []string {
	return []string{
		"jpeg_c", "dijkstra", "jpeg_d", "lame", "patricia",
		"susan_c", "susan_e", "susan_s", "tiff2bw", "tiff2rgba",
		"tiffdither", "tiffmedian", "gsm_c",
	}
}

// Fig7Row compares one benchmark.
type Fig7Row struct {
	Name    string
	InOrder *core.Stack
	OoO     *ooo.Stack
}

// Fig7Result is the comparison set.
type Fig7Result struct {
	Rows   []Fig7Row
	OoOCfg ooo.Config
}

// Fig7 compares 4-wide in-order (mechanistic model) against 4-wide
// out-of-order (interval model) on the default memory system,
// benchmarks in parallel.
func Fig7() (*Fig7Result, error) {
	inCfg := uarch.Default()
	ooCfg := ooo.DefaultConfig()
	names := Fig7Names()
	res := &Fig7Result{OoOCfg: ooCfg, Rows: make([]Fig7Row, len(names))}
	err := par.ForEachCtx(context.Background(), 0, len(names), func(i int) error {
		name := names[i]
		pw, err := Profiled(name)
		if err != nil {
			return err
		}
		inStack, err := pw.PredictCtx(context.Background(), inCfg)
		if err != nil {
			return err
		}
		col, err := ooo.NewCollector(ooCfg)
		if err != nil {
			return err
		}
		if err := pw.Trace.EachChunk(context.Background(), col.ConsumeChunk); err != nil {
			return err
		}
		ooStack, err := ooo.Predict(pw.Prof.N, col.Result(), ooCfg)
		if err != nil {
			return err
		}
		res.Rows[i] = Fig7Row{Name: name, InOrder: inStack, OoO: ooStack}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the Figure 7 comparison.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "In-order vs out-of-order CPI stacks (both 4-wide; OoO ROB=%d)\n", r.OoOCfg.ROB)
	fmt.Fprintf(&b, "%-12s %-4s %8s %8s %8s %8s %8s %8s %8s | %8s\n",
		"benchmark", "core", "base", "mul/div", "il1/il2", "dl1", "dl2", "bpmiss", "deps", "CPI")
	for _, row := range r.Rows {
		in, oo := row.InOrder, row.OoO
		fmt.Fprintf(&b, "%-12s %-4s %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %8.4f\n",
			row.Name, "in",
			in.CPIOf(core.Base), in.CPIOf(core.MulDiv),
			in.CPIOf(core.IL1L2Hit)+in.CPIOf(core.IL2Miss),
			in.CPIOf(core.DL1L2Hit), in.CPIOf(core.DL2Miss)+in.TLB(),
			in.CPIOf(core.BrMiss)+in.CPIOf(core.BrTaken), in.Deps(), in.CPI())
		fmt.Fprintf(&b, "%-12s %-4s %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %8.4f\n",
			"", "ooo",
			oo.CPIOf(ooo.Base), oo.CPIOf(ooo.MulDiv),
			oo.CPIOf(ooo.IL1Miss)+oo.CPIOf(ooo.IL2Miss),
			oo.CPIOf(ooo.DL1Miss), oo.CPIOf(ooo.DL2Miss),
			oo.CPIOf(ooo.BrMiss), oo.CPIOf(ooo.Deps), oo.CPI())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8: compiler optimizations
// ---------------------------------------------------------------------------

// Fig8Names are the paper's five compiler-study benchmarks.
func Fig8Names() []string {
	return []string{"gsm_c", "sha", "stringsearch", "susan_s", "tiffdither"}
}

// Fig8Cell is one (benchmark, optimization level) cycle stack.
type Fig8Cell struct {
	Level      compiler.Level
	N          int64
	Cycles     float64 // model total cycles
	Normalized float64 // cycles / O3 cycles
	Stack      *core.Stack
}

// Fig8Result groups cells per benchmark.
type Fig8Result struct {
	Benchmarks map[string][]Fig8Cell
	Order      []string
}

// Fig8 profiles each benchmark at the three optimization levels and
// evaluates the model on the default configuration. (Each optimized
// binary needs its own profile — exactly as the paper re-profiles each
// compiler setting.)
func Fig8() (*Fig8Result, error) {
	cfg := uarch.Default()
	res := &Fig8Result{Benchmarks: map[string][]Fig8Cell{}, Order: Fig8Names()}
	levels := compiler.Levels()
	rows := make([][]Fig8Cell, len(res.Order))
	err := par.ForEachCtx(context.Background(), 0, len(res.Order), func(bi int) error {
		name := res.Order[bi]
		spec, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		// Levels stay sequential inside the parallel benchmark loop so
		// concurrency never exceeds the -workers contract.
		cells := make([]Fig8Cell, len(levels))
		for li, lvl := range levels {
			opt := compiler.Optimize(spec.Build(), lvl)
			pw, err := harness.ProfileProgram(opt)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", name, lvl, err)
			}
			st, err := pw.PredictCtx(context.Background(), cfg)
			if err != nil {
				return err
			}
			cells[li] = Fig8Cell{Level: lvl, N: pw.Prof.N, Cycles: st.Total(), Stack: st}
		}
		var o3Cycles float64
		for _, c := range cells {
			if c.Level == compiler.O3 {
				o3Cycles = c.Cycles
			}
		}
		for i := range cells {
			cells[i].Normalized = cells[i].Cycles / o3Cycles
		}
		rows[bi] = cells
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bi, name := range res.Order {
		res.Benchmarks[name] = rows[bi]
	}
	return res, nil
}

// Render formats Figure 8's normalized cycle stacks.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Normalized cycle stacks across compiler optimizations (O3 = 1.0)\n")
	fmt.Fprintf(&b, "%-14s %-8s %9s %8s %8s %8s %8s %8s\n",
		"benchmark", "level", "N", "norm", "base", "deps", "bptaken", "other")
	for _, name := range r.Order {
		for _, c := range r.Benchmarks[name] {
			s := c.Stack
			norm := c.Cycles
			base := float64(s.Cycles[core.Base] / norm * c.Normalized)
			deps := float64((s.Cycles[core.DepUnit] + s.Cycles[core.DepLL] + s.Cycles[core.DepLd]) / norm * c.Normalized)
			taken := float64(s.Cycles[core.BrTaken] / norm * c.Normalized)
			other := c.Normalized - base - deps - taken
			fmt.Fprintf(&b, "%-14s %-8s %9d %8.3f %8.3f %8.3f %8.3f %8.3f\n",
				name, c.Level, c.N, c.Normalized, base, deps, taken, other)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9: EDP design-space exploration
// ---------------------------------------------------------------------------

// Fig9Names are the paper's four EDP-study benchmarks.
func Fig9Names() []string { return []string{"adpcm_d", "gsm_c", "lame", "patricia"} }

// Fig9Row is one benchmark's EDP exploration outcome.
type Fig9Row struct {
	Name          string
	ModelBestCfg  uarch.Config
	SimBestCfg    uarch.Config
	ModelBestEDP  float64 // detailed EDP of the configuration the model picks
	SimBestEDP    float64 // detailed EDP of the true optimum
	EDPGapPercent float64 // how much worse the model's pick is (0 = same point)
	SameOptimum   bool
	Points        []dse.Point
}

// Fig9Result is the EDP case study.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9 runs the EDP exploration over the full design space with
// detailed-simulation validation.
func Fig9(workers int) (*Fig9Result, error) {
	res := &Fig9Result{}
	for _, name := range Fig9Names() {
		pts, _, err := validatedTable2(name, workers)
		if err != nil {
			return nil, err
		}
		mBest, sBest := dse.BestEDP(pts)
		row := Fig9Row{
			Name:         name,
			ModelBestCfg: pts[mBest].Cfg,
			SimBestCfg:   pts[sBest].Cfg,
			ModelBestEDP: pts[mBest].SimEDP,
			SimBestEDP:   pts[sBest].SimEDP,
			SameOptimum:  mBest == sBest,
			Points:       pts,
		}
		if row.SimBestEDP > 0 {
			row.EDPGapPercent = 100 * (row.ModelBestEDP - row.SimBestEDP) / row.SimBestEDP
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the Figure 9 outcome.
func (r *Fig9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EDP design-space exploration (192 points; EDP in J*s; lower is better)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s model picks %-34s detailed optimum %-34s same=%v gap=%.2f%%\n",
			row.Name, row.ModelBestCfg.Name, row.SimBestCfg.Name, row.SameOptimum, row.EDPGapPercent)
		// Configurations ordered from high to low detailed EDP, as in
		// the paper's plots; print a decile sample.
		pts := append([]dse.Point(nil), row.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].SimEDP > pts[j].SimEDP })
		for i := 0; i < len(pts); i += len(pts) / 8 {
			p := pts[i]
			fmt.Fprintf(&b, "   %-34s modelEDP=%.4e detailedEDP=%.4e\n", p.Cfg.Name, p.ModelEDP, p.SimEDP)
		}
	}
	return b.String()
}
