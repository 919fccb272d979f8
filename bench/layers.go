package main

// This file is the benchmark's adapter: every call into the
// repository's packages is made here, so an API change touches this
// file only. It uses the context-taking entry points and none of the
// process-global counters or switches.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/service"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

var (
	table2   = dse.Space(uarch.Default())
	extended = mustSpace(uarch.ExtendedDomain())
	pm       = power.NewModel()
)

func mustSpace(d *uarch.Domain) []uarch.Config {
	cfgs, err := dse.SpaceFrom(d, uarch.Default())
	if err != nil {
		panic(fmt.Sprintf("enumerating the %s domain: %v", d.Name, err))
	}
	return cfgs
}

// randFloor is the dynamic-instruction floor generated programs are
// profiled to. One run of a default-sized program is well under 20,000
// instructions, so every generated program lands just above the floor
// and a run's work does not depend on its seed.
const randFloor = 200_000

// entry is one program of a workload's suite.
type entry struct {
	name   string
	minDyn int64
	build  func() *program.Program
}

// makeSuite returns the first named programs of workloads.All()
// followed by randoms generated programs seeded seed·100+i. The
// generated programs' names carry their generator seed, so a name
// identifies one program across runs.
func makeSuite(seed int64, named, randoms int) []entry {
	var out []entry
	for _, s := range workloads.All()[:named] {
		out = append(out, entry{name: s.Name, build: s.Build})
	}
	for i := 0; i < randoms; i++ {
		c := randprog.Default(seed*100 + int64(i))
		out = append(out, entry{
			name:   fmt.Sprintf("rand-%d", c.Seed),
			minDyn: randFloor,
			build:  func() *program.Program { return randprog.Generate(c) },
		})
	}
	return out
}

// namedPrograms is the size of workloads.All().
func namedPrograms() int { return len(workloads.All()) }

// namedEntry returns the workloads.All() program called name.
func namedEntry(name string) (entry, error) {
	s, err := workloads.ByName(name)
	return entry{name: s.Name, build: s.Build}, err
}

// buildAll builds every program of the suite once.
func buildAll(suite []entry) {
	for _, e := range suite {
		e.build()
	}
}

// profiledSuite is a suite profiled once and kept resident.
type profiledSuite []*harness.Profiled

func profileSuite(ctx context.Context, suite []entry) (profiledSuite, error) {
	out := make(profiledSuite, len(suite))
	for i, e := range suite {
		pw, err := harness.ProfileProgramScaledCtx(ctx, e.build(), e.minDyn)
		if err != nil {
			return nil, err
		}
		out[i] = pw
	}
	return out, nil
}

// storeBytes sums the sizes of the artifacts in the store at dir.
func storeBytes(dir string) (int64, error) {
	st, err := artifact.Open(dir)
	if err != nil {
		return 0, err
	}
	infos, err := st.List()
	var n int64
	for _, in := range infos {
		n += in.SizeBytes
	}
	return n, err
}

// sweep is one program's exploration: every design point, plus the
// profiled workload for the untimed cross-check.
type sweep struct {
	pw       *harness.Profiled
	pts      []dse.Point
	fromDisk bool
}

// fillStore profiles e into the store at dir and writes the planes
// of every Table 2 component through to it, without timing replays.
func fillStore(ctx context.Context, dir string, e entry, workers int) error {
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	pw, _, err := harness.ProfileProgramCached(st, e.name, e.minDyn, e.build)
	if err != nil {
		return err
	}
	return pw.EnsureAnnotatedCtx(ctx, table2, workers)
}

// sweepValidated is what `dse-explore -validate -artifact-dir dir`
// does for one program: load or profile it through the store, then
// run the model and the detailed simulator over Table 2. With a
// tracer, each of the two calls is a span under parent.
func sweepValidated(ctx context.Context, t *tracer, parent, op int, dir string, e entry, workers int) (sweep, error) {
	st, err := artifact.Open(dir)
	if err != nil {
		return sweep{}, err
	}
	var s sweep
	err = t.run("harness.profile_cached", parent, op, func() (float64, error) {
		var err error
		s.pw, s.fromDisk, err = harness.ProfileProgramCached(st, e.name, e.minDyn, e.build)
		return 1, err
	})
	if err != nil {
		return sweep{}, err
	}
	err = t.run("dse.explore_validated", parent, op, func() (float64, error) {
		var err error
		s.pts, err = dse.ExploreValidatedCtx(ctx, s.pw, table2, pm, workers)
		return float64(len(table2)), err
	})
	return s, err
}

// sweepModel is the model-only exploration of the extended domain on
// a copy of pw with empty caches, as one span under parent.
func sweepModel(ctx context.Context, t *tracer, parent, op int, pw *harness.Profiled) (sweep, error) {
	s := sweep{pw: pw}
	err := t.run("dse.explore", parent, op, func() (float64, error) {
		var err error
		s.pts, err = dse.ExploreCtx(ctx, pw.Fresh(), extended, pm)
		return float64(len(extended)), err
	})
	return s, err
}

// digest is a SHA-256 over every point's model and simulated results,
// with floats printed exactly.
func (s sweep) digest() string {
	h := sha256.New()
	for _, p := range s.pts {
		fmt.Fprintf(h, "%s %+v %v %v %v %v %v", p.Cfg.Name, *p.ModelStack, p.ModelCycles, p.ModelCPI, p.ModelSecs, p.ModelEDP, p.ModelEnergyJ)
		if p.Sim != nil {
			fmt.Fprintf(h, " %+v %v %v %v %v %v", *p.Sim, p.SimCPI, p.SimSecs, p.SimEDP, p.SimEnergyJ, p.CPIErr)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpiErr returns the sum and maximum of the model-vs-simulated CPI
// error over the validated points.
func (s sweep) cpiErr() (sum, maxErr float64, n int) {
	for _, p := range s.pts {
		if p.Sim != nil {
			sum += p.CPIErr
			maxErr = math.Max(maxErr, p.CPIErr)
			n++
		}
	}
	return sum, maxErr, n
}

// crossCheck recomputes point k by independent paths: the model
// through a per-point statistics replay over the real cache hierarchy
// and predictor, and, for validated points, the reference simulator
// pipeline.Simulate. Both must be bit-identical to the sweep.
func (s sweep) crossCheck(ctx context.Context, k int) error {
	p := s.pts[k]
	st, err := s.pw.PredictCtx(ctx, p.Cfg)
	if err != nil {
		return err
	}
	if *st != *p.ModelStack {
		return fmt.Errorf("%s at %s: model %+v, per-point replay %+v", s.pw.Name, p.Cfg.Name, *p.ModelStack, *st)
	}
	if p.Sim == nil {
		return nil
	}
	ref, err := pipeline.Simulate(s.pw.Trace, p.Cfg)
	if err != nil {
		return err
	}
	if ref != *p.Sim {
		return fmt.Errorf("%s at %s: simulated %+v, pipeline.Simulate %+v", s.pw.Name, p.Cfg.Name, *p.Sim, ref)
	}
	return nil
}

// probeLayers calls the layers beneath the sweeps directly on e's
// program, each call a span under root, so that every per-layer metric
// has a value on every workload. dir is an empty directory for a
// private artifact store. warm measures the fused inputs and the batch
// kernel as explore-warm meets them: on a workload loaded from the
// store, whose planes are rehydrated rather than computed.
func probeLayers(ctx context.Context, t *tracer, root int, dir string, e entry, warm bool, workers int) error {
	const op = -1
	var prog *program.Program
	t.run("workloads.build", root, op, func() (float64, error) {
		prog = e.build()
		return 1, nil
	})
	var pw *harness.Profiled
	err := t.run("harness.profile", root, op, func() (float64, error) {
		var err error
		if pw, err = harness.ProfileProgramScaledCtx(ctx, prog, e.minDyn); err != nil {
			return 0, err
		}
		return float64(pw.Trace.Len()), nil
	})
	if err != nil {
		return err
	}
	insts := float64(pw.Trace.Len())
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	id := artifact.WorkloadID{Name: e.name, MinDynInsts: e.minDyn, Code: prog.Fingerprint()}
	var key string
	err = t.run("artifact.save", root, op, func() (float64, error) {
		var err error
		key, err = st.SaveWorkload(id, pw.Trace, pw.Prof)
		return 1, err
	})
	if err != nil {
		return err
	}
	loaded := &harness.Profiled{Name: e.name}
	err = t.run("artifact.load_workload", root, op, func() (float64, error) {
		var err error
		loaded.Trace, loaded.Prof, err = st.LoadWorkload(id)
		return 1, err
	})
	if err != nil {
		return err
	}

	var hiers []cache.HierarchyConfig
	var preds []uarch.PredictorKind
	seenH := map[cache.HierarchyConfig]bool{}
	seenP := map[uarch.PredictorKind]bool{}
	for _, cfg := range table2 {
		if !seenH[cfg.Hier] {
			seenH[cfg.Hier] = true
			hiers = append(hiers, cfg.Hier)
		}
		if !seenP[cfg.Predictor] {
			seenP[cfg.Predictor] = true
			preds = append(preds, cfg.Predictor)
		}
	}
	err = t.run("harness.annotate_caches", root, op, func() (float64, error) {
		_, err := harness.AnnotateCaches(pw.Trace, hiers, workers)
		return insts * float64(len(hiers)), err
	})
	if err != nil {
		return err
	}
	err = t.run("harness.annotate_branches", root, op, func() (float64, error) {
		_, err := harness.AnnotateBranches(pw.Trace, preds, workers)
		return insts * float64(len(preds)), err
	})
	if err != nil {
		return err
	}

	// The fused annotation and inputs pass of a cold sweep, which also
	// writes the planes through to the store. A warm sweep meets the
	// workload loaded back, with its planes on disk.
	cold := pw.Fresh()
	cold.AttachArtifacts(st, key)
	swept := cold
	if warm {
		if _, err := cold.ExploreInputsCtx(ctx, table2, workers); err != nil {
			return err
		}
		loaded.AttachArtifacts(st, key)
		swept = loaded
	}
	err = t.run("harness.explore_inputs", root, op, func() (float64, error) {
		_, err := swept.ExploreInputsCtx(ctx, table2, workers)
		return insts, err
	})
	if err != nil {
		return err
	}
	err = t.run("pipeline.batch", root, op, func() (float64, error) {
		_, err := swept.SimulateDetailedBatchCtx(ctx, table2, workers)
		return insts * float64(len(table2)), err
	})
	if err != nil {
		return err
	}
	err = t.run("artifact.load_planes", root, op, func() (float64, error) {
		for _, h := range hiers {
			if _, _, err := st.LoadMemPlane(key, h); err != nil {
				return 0, err
			}
		}
		for _, pk := range preds {
			if _, err := st.LoadBranchPlane(key, uarch.PredictorName(pk)); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	if err != nil {
		return err
	}

	// The model-only layers over the extended domain: the statistics
	// replay, then the model and the power model at every point.
	var memo *harness.InputsSet
	err = t.run("harness.multi_inputs", root, op, func() (float64, error) {
		var err error
		memo, err = pw.Fresh().MultiInputsCtx(ctx, extended)
		return insts, err
	})
	if err != nil {
		return err
	}
	ins := make([]core.Inputs, len(extended))
	for i, cfg := range extended {
		if ins[i], err = memo.Inputs(cfg); err != nil {
			return err
		}
	}
	cycles := make([]float64, len(extended))
	err = t.run("core.predict", root, op, func() (float64, error) {
		for i, cfg := range extended {
			stack, err := core.Predict(ins[i], cfg)
			if err != nil {
				return 0, err
			}
			cycles[i] = stack.Total()
		}
		return float64(len(extended)), nil
	})
	if err != nil {
		return err
	}
	err = t.run("power.objectives", root, op, func() (float64, error) {
		for i, cfg := range extended {
			if _, err := pm.Objectives(power.EventsFrom(ins[i].Prof, ins[i].Mem, ins[i].Branch), cfg, cycles[i]); err != nil {
				return 0, err
			}
		}
		return float64(len(extended)), nil
	})
	if err != nil {
		return err
	}

	for _, cfg := range table2 {
		err := t.run("harness.predict", root, op, func() (float64, error) {
			_, err := pw.PredictCtx(ctx, cfg)
			return 1, err
		})
		if err != nil {
			return err
		}
	}

	// Per width of Table 2: the batch kernel on a copy with the planes
	// resident and no memoized timings, and a model-only slice.
	byWidth := pw.Fresh()
	byWidth.AttachArtifacts(st, key)
	if err := byWidth.EnsureAnnotatedCtx(ctx, table2, workers); err != nil {
		return err
	}
	slices := map[int][]uarch.Config{}
	for _, cfg := range table2 {
		slices[cfg.Width] = append(slices[cfg.Width], cfg)
	}
	for w := 1; w <= 4; w++ {
		err := t.run(fmt.Sprintf("pipeline.batch.w%d", w), root, op, func() (float64, error) {
			_, err := byWidth.SimulateDetailedBatchCtx(ctx, slices[w], workers)
			return insts * float64(len(slices[w])), err
		})
		if err != nil {
			return err
		}
		err = t.run("dse.explore_slice", root, op, func() (float64, error) {
			_, err := dse.ExploreCtx(ctx, pw, slices[w], pm)
			return 1, err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// server is an in-process modeld.
type server struct{ srv *service.Server }

// newServer builds the service as cmd/modeld does with -workers.
func newServer(workers int) (server, error) {
	srv, err := service.New(service.Config{Workers: workers})
	return server{srv}, err
}

func (s server) handler() http.Handler { return s.srv.Handler() }

// poolStats returns the workload pool's hit ratio and profiling runs.
func (s server) poolStats() (hitRatio float64, profiles int64) {
	ps := s.srv.Pool().Stats()
	if n := ps.Hits + ps.Misses; n > 0 {
		hitRatio = float64(ps.Hits) / float64(n)
	}
	return hitRatio, ps.Profiles
}

// shed is the number of requests the admission queue refused.
func (s server) shed() int64 { return s.srv.MetricsSnapshot().Lifecycle.Shed }
