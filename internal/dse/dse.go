// Package dse implements the paper's design-space exploration: the
// Table 2 space of 192 design points (3 depth/frequency settings × 4
// widths × 4 L2 sizes × 2 L2 associativities × 2 branch predictors),
// evaluated either with the mechanistic model alone (seconds) or
// validated against the detailed simulator (the expensive path the
// model exists to avoid).
package dse

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/uarch"
)

// Space enumerates the Table 2 design space starting from base (whose
// L1 caches, latencies and TLBs are kept): SpaceFrom over the typed
// uarch.Table2Domain(), whose axis definitions are shared with the CLI
// and service request validators. Point names and enumeration order
// are the historical ones (depth outer, predictor innermost).
func Space(base uarch.Config) []uarch.Config {
	out, err := SpaceFrom(uarch.Table2Domain(), base)
	if err != nil {
		// The Table 2 domain is constraint-free and every point builds
		// from any valid base; a failure here is a programming error.
		panic(fmt.Sprintf("dse: enumerating the Table 2 domain: %v", err))
	}
	return out
}

// SpaceFrom enumerates every valid point of a typed parameter domain
// starting from base, in deterministic index order (axis 0 slowest).
func SpaceFrom(d *uarch.Domain, base uarch.Config) ([]uarch.Config, error) {
	return d.Enumerate(base)
}

// Point is one evaluated design point.
type Point struct {
	Cfg uarch.Config

	ModelStack   *core.Stack
	ModelCycles  float64
	ModelCPI     float64
	ModelSecs    float64
	ModelEDP     float64 // J·s, using model cycles
	ModelEnergyJ float64 // total energy, using model cycles

	// Populated only by ExploreValidatedCtx.
	Sim        *pipeline.Result
	SimCPI     float64
	SimSecs    float64
	SimEDP     float64
	SimEnergyJ float64
	CPIErr     float64 // |model-sim|/sim
}

// ExploreCtx evaluates the model on every configuration. The mixed
// statistics come from the workload's statistics memo
// (harness.InputsSet), and a single trace walk collects every
// component it lacks at once — every L2 geometry via stack-distance
// simulation, every predictor simultaneously; model evaluation itself
// is closed-form. The walk aborts at a trace chunk boundary once ctx
// ends, returning ctx.Err() with no points.
func ExploreCtx(ctx context.Context, pw *harness.Profiled, cfgs []uarch.Config, pm power.Model) ([]Point, error) {
	memo, err := pw.MultiInputsCtx(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	return explore(memo, cfgs, pm)
}

func explore(src *harness.InputsSet, cfgs []uarch.Config, pm power.Model) ([]Point, error) {
	out := make([]Point, 0, len(cfgs))
	for _, cfg := range cfgs {
		in, err := src.Inputs(cfg)
		if err != nil {
			return nil, err
		}
		st, err := core.Predict(in, cfg)
		if err != nil {
			return nil, err
		}
		ev := power.EventsFrom(in.Prof, in.Mem, in.Branch)
		obj, err := pm.Objectives(ev, cfg, st.Total())
		if err != nil {
			return nil, err
		}
		out = append(out, Point{
			Cfg:          cfg,
			ModelStack:   st,
			ModelCycles:  st.Total(),
			ModelCPI:     st.CPI(),
			ModelSecs:    obj.DelaySec,
			ModelEDP:     obj.EDP,
			ModelEnergyJ: obj.EnergyJ,
		})
	}
	return out, nil
}

// fillSim fills one point's simulation-side fields from a detailed
// run, using the same power model and inputs as the model side.
func fillSim(p *Point, sim pipeline.Result, src *harness.InputsSet, pm power.Model) error {
	in, err := src.Inputs(p.Cfg)
	if err != nil {
		return err
	}
	ev := power.EventsFrom(in.Prof, in.Mem, in.Branch)
	obj, err := pm.Objectives(ev, p.Cfg, float64(sim.Cycles))
	if err != nil {
		return err
	}
	p.Sim = &sim
	p.SimCPI = sim.CPI()
	p.SimSecs = obj.DelaySec
	p.SimEDP = obj.EDP
	p.SimEnergyJ = obj.EnergyJ
	if p.SimCPI > 0 {
		p.CPIErr = abs(p.ModelCPI-p.SimCPI) / p.SimCPI
	}
	return nil
}

// ExploreValidatedCtx is ExploreCtx that also runs the detailed
// simulator for every configuration, in parallel across workers (≤0
// means the process default, see par.SetDefault). The trace is
// annotated once per distinct hierarchy and once per distinct
// predictor of the space (itself in parallel), with the model inputs
// fused into the annotation traversals; every memo-missing design
// point then replays together through the config-parallel timing
// kernel in one pass per trace chunk. A cold 192-point sweep therefore
// touches the trace once per distinct component and once for timing,
// and each detailed result is bit-identical to pipeline.Simulate's.
//
// Cancellation cuts every stage — the statistics pass, the annotation
// fan-out, and the detailed replays — at chunk boundaries: no new
// design point starts and running replays abort, returning ctx.Err().
// Completed points are discarded, never returned partially.
func ExploreValidatedCtx(ctx context.Context, pw *harness.Profiled, cfgs []uarch.Config, pm power.Model, workers int) ([]Point, error) {
	memo, err := pw.ExploreInputsCtx(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	pts, err := explore(memo, cfgs, pm)
	if err != nil {
		return nil, err
	}
	sims, err := pw.SimulateDetailedBatchCtx(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}
	for i := range pts {
		if err := fillSim(&pts[i], sims[i], memo, pm); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// ExploreSuiteCtx runs the model-only exploration for several
// profiled workloads, in parallel across benchmarks (≤0 workers means
// the process default). Each benchmark's exploration is itself a
// single trace replay plus closed-form evaluation; the result is
// indexed like pws. No new benchmark's exploration starts after ctx
// ends and running replays abort at chunk boundaries.
func ExploreSuiteCtx(ctx context.Context, pws []*harness.Profiled, cfgs []uarch.Config, pm power.Model, workers int) ([][]Point, error) {
	out := make([][]Point, len(pws))
	err := par.ForEachCtx(ctx, workers, len(pws), func(i int) error {
		pts, err := ExploreCtx(ctx, pws[i], cfgs, pm)
		if err != nil {
			return fmt.Errorf("%s: %w", pws[i].Name, err)
		}
		out[i] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BestEDP returns the index of the point with the lowest EDP according
// to the model and according to the detailed simulator (the latter is
// -1 unless ExploreValidatedCtx filled the simulation fields). Ties on
// EDP break to the lowest index — the earliest point in enumeration
// order — so the winner is deterministic and independent of how the
// points were produced (exhaustive sweep or search).
func BestEDP(pts []Point) (modelBest, simBest int) {
	modelBest, simBest = -1, -1
	for i := range pts {
		if modelBest < 0 || pts[i].ModelEDP < pts[modelBest].ModelEDP {
			modelBest = i
		}
		if pts[i].Sim != nil && (simBest < 0 || pts[i].SimEDP < pts[simBest].SimEDP) {
			simBest = i
		}
	}
	return modelBest, simBest
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
