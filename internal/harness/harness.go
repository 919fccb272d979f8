// Package harness wires the substrates together: it runs the
// functional simulator to produce a trace and the machine-independent
// profile (once per program), collects mixed program/machine statistics
// for chosen cache hierarchies and branch predictors, evaluates the
// mechanistic model, and validates it against the detailed pipeline
// simulator. It mirrors the modeling framework of Figure 2 in the paper.
package harness

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/artifact"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/funcsim"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Profiled is a program together with its recorded dynamic trace and
// machine-independent profile. Profiling happens once; the trace is
// replayed for every design point of interest. Annotation planes —
// precomputed per-instruction machine events consumed by the detailed
// simulator's fast path — are cached here keyed by the machine
// component they depend on (see EnsureAnnotatedCtx), so figures sharing a
// workload share the annotation work. The work done on the workload is
// counted here too (see Counters).
type Profiled struct {
	Name  string
	Trace *trace.Trace
	Prof  *profile.Profile

	annot annotStore

	// Persistent plane tier (see AttachArtifacts): when set, the
	// annotation paths rehydrate per-component planes from the
	// artifact store before computing and write computed planes
	// through to it. storeKey is the workload's content key.
	store    *artifact.Store
	storeKey string
}

// ProfileProgram runs p once, recording the trace and the profile in a
// single pass: the chunked trace builder appends without growth
// copies, so no sizing pre-pass (and no second execution) is needed.
func ProfileProgram(p *program.Program) (*Profiled, error) {
	return ProfileProgramScaledCtx(context.Background(), p, 0)
}

// ProfileProgramScaledCtx is ProfileProgram with a dynamic-instruction
// floor: the program is re-executed (fresh machine state, same binary)
// until at least minDyn instructions have been recorded, appending
// every run to one trace and one profile as if it were a single long
// execution. minDyn ≤ 0 means one run. This is the -dyninsts scaling
// knob: the columnar store keeps 10×+ workloads affordable.
// Cancellation is observed between executions of the program (one run
// is the atomic unit of profiling — a partially recorded run would not
// satisfy the profile's invariants), so with minDyn ≤ one run's length
// ctx is checked only before the first run.
func ProfileProgramScaledCtx(ctx context.Context, p *program.Program, minDyn int64) (*Profiled, error) {
	return profileRuns(ctx, context.Background(), p, minDyn, 0)
}

// ProfileProgramSandboxedCtx is ProfileProgramScaledCtx hardened for
// untrusted programs: execution carries a hard dynamic-instruction cap
// maxDyn across all scaling runs (funcsim.ErrMaxInstructions when it
// would be exceeded before the minDyn floor is met), the context is
// polled inside each run at chunk granularity (funcsim.RunCtx), so a
// wall-clock deadline stops even a tight infinite loop, and a panic
// anywhere in the build/execute/profile stack is converted into an
// error — a hostile submission can fail only itself, never the
// process. maxDyn ≤ 0 means funcsim.DefaultMaxInstructions per run.
func ProfileProgramSandboxedCtx(ctx context.Context, p *program.Program, minDyn, maxDyn int64) (pw *Profiled, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			pw, err = nil, fmt.Errorf("harness: profiling %q panicked: %v", p.Name, rec)
		}
	}()
	return profileRuns(ctx, ctx, p, minDyn, maxDyn)
}

// addChunk is the profiler goroutine's step, replaced by tests.
var addChunk = (*profile.Profiler).Add

// profileRuns executes p into one trace, resetting the machine between
// runs, until at least minDyn instructions are recorded, and profiles
// the trace beside the execution: a Profiler on a goroutine of its own
// takes each chunk the builder seals, then the final open chunk, is
// joined on every exit path and returns a panic of its own as the
// error. Its queue of four chunks rides out a scheduling delay yet
// holds the interpreter back if the profiler falls behind. ctx is
// checked before every run and runCtx polled inside each (see
// funcsim.RunCtx); maxDyn > 0 caps the instructions of all runs.
func profileRuns(ctx, runCtx context.Context, p *program.Program, minDyn, maxDyn int64) (*Profiled, error) {
	m, err := funcsim.New(p)
	if err != nil {
		return nil, fmt.Errorf("harness: profiling %q: %w", p.Name, err)
	}
	prof := new(profile.Profiler)
	queue, done := make(chan trace.Columns, 4), make(chan error, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				for range queue {
				}
				done <- fmt.Errorf("harness: profiling %q panicked: %v", p.Name, rec)
			}
		}()
		for ck := range queue {
			addChunk(prof, &ck)
		}
		done <- nil
	}()
	join := sync.OnceValue(func() error { close(queue); return <-done })
	defer join()

	b := trace.NewBuilder()
	b.OnSeal(func(ck trace.Columns) { queue <- ck })
	for total := int64(0); total == 0 || total < minDyn; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if total > 0 {
			m.Reset()
		}
		if maxDyn > 0 {
			if total >= maxDyn {
				return nil, fmt.Errorf("harness: profiling %q: %w (budget %d)", p.Name, funcsim.ErrMaxInstructions, maxDyn)
			}
			m.MaxInstructions = maxDyn - total
		}
		n, err := m.RunCtx(runCtx, b)
		if err != nil {
			return nil, fmt.Errorf("harness: profiling %q: %w", p.Name, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("harness: program %q executed zero instructions", p.Name)
		}
		total += n
	}
	tr := b.Trace()
	queue <- tr.Chunks()[tr.NumChunks()-1]
	if err := join(); err != nil {
		return nil, err
	}
	return &Profiled{Name: p.Name, Trace: tr, Prof: prof.Finish(p.Name, tr.Dictionary())}, nil
}

// Fresh returns a Profiled sharing this one's trace and profile but
// with an empty annotation/timing cache, zero Counters and no artifact
// tier attached.
// Benchmarks use it to measure cold exploration paths repeatedly
// without paying for re-profiling, and without warm-cache iterations
// polluting the mean.
func (pw *Profiled) Fresh() *Profiled {
	return &Profiled{Name: pw.Name, Trace: pw.Trace, Prof: pw.Prof}
}

// MustProfileProgram is ProfileProgram that panics on error.
func MustProfileProgram(p *program.Program) *Profiled {
	pw, err := ProfileProgram(p)
	if err != nil {
		panic(err)
	}
	return pw
}

// MachineStatsCtx replays the trace through the cache hierarchy and
// branch predictor of cfg, producing the mixed program/machine inputs
// of the model. Cancellation is observed at trace chunk boundaries
// (see trace.EachChunk) and aborts the traversal with ctx.Err(). It
// walks the chunks through cache.Hierarchy.ConsumeChunk on purpose: a
// Hierarchy shares no code with the stack-distance L2SpaceSim behind
// InputsSet and the annotation planes, so it is their independent
// per-configuration reference.
func MachineStatsCtx(ctx context.Context, tr *trace.Trace, cfg uarch.Config) (cache.Stats, branch.Stats, error) {
	h, err := cache.NewHierarchy(cfg.Hier)
	if err != nil {
		return cache.Stats{}, branch.Stats{}, err
	}
	bc := branch.NewCollector(cfg.Predictor.New())
	bcs := []*branch.Collector{bc}
	if err := tr.EachChunk(ctx, func(ck *trace.Columns) {
		h.ConsumeChunk(ck)
		branch.ConsumeChunk(ck, bcs, nil)
	}); err != nil {
		return cache.Stats{}, branch.Stats{}, err
	}
	return h.S, bc.S, nil
}

// InputsCtx assembles the full model inputs for one design point
// (cancellation as in MachineStatsCtx).
func (pw *Profiled) InputsCtx(ctx context.Context, cfg uarch.Config) (core.Inputs, error) {
	ms, bs, err := MachineStatsCtx(ctx, pw.Trace, cfg)
	if err != nil {
		return core.Inputs{}, err
	}
	return core.Inputs{Prof: pw.Prof, Mem: ms, Branch: bs}, nil
}

// PredictCtx goes from profile to prediction for one design point:
// the statistics replay aborts at a chunk boundary once ctx ends,
// returning ctx.Err(). It replays the trace on every call and shares
// no code with the statistics memo, which makes it the per-point
// reference; a caller predicting many points of one workload resolves
// MultiInputsCtx and core.Predict instead, as modeld does.
func (pw *Profiled) PredictCtx(ctx context.Context, cfg uarch.Config) (*core.Stack, error) {
	in, err := pw.InputsCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return core.Predict(in, cfg)
}

// Validation compares the model against the detailed simulator on one
// design point.
type Validation struct {
	Name     string
	Cfg      uarch.Config
	Model    *core.Stack
	Sim      pipeline.Result
	ModelCPI float64
	SimCPI   float64
}

// AbsErr returns |model-sim|/sim.
func (v Validation) AbsErr() float64 {
	if v.SimCPI == 0 {
		return 0
	}
	return math.Abs(v.ModelCPI-v.SimCPI) / v.SimCPI
}

// Validate runs both the model and the detailed simulator. The
// detailed reference is a one-point SimulateDetailedBatchCtx on one
// worker: bit-identical to pipeline.Simulate, and the annotation is
// cached on pw for every later design point sharing its hierarchy or
// predictor.
func (pw *Profiled) Validate(cfg uarch.Config) (Validation, error) {
	st, err := pw.PredictCtx(context.Background(), cfg)
	if err != nil {
		return Validation{}, err
	}
	sims, err := pw.SimulateDetailedBatchCtx(context.Background(), []uarch.Config{cfg}, 1)
	if err != nil {
		return Validation{}, err
	}
	sim := sims[0]
	return Validation{
		Name:     pw.Name,
		Cfg:      cfg,
		Model:    st,
		Sim:      sim,
		ModelCPI: st.CPI(),
		SimCPI:   sim.CPI(),
	}, nil
}
