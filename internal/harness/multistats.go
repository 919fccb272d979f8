package harness

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// InputsSet accumulates the mixed program/machine statistics of a set
// of design points and resolves the model inputs of any of them. Each
// Add collects only the components (distinct cache hierarchies,
// distinct branch predictors) not yet in the set, in at most one trace
// traversal: one stack-distance engine per distinct L1/TLB front
// covers all its L2 geometries, and every missing predictor runs on the
// same stream. A batch whose components are all present costs no
// replay — the economy of the heuristic search (dse.Search), whose
// generations arrive one batch at a time. The statistics are
// bit-identical however the components are split across Adds: each
// engine's and predictor's results are independent of what else shares
// its traversal.
//
// Add is not safe for concurrent use; Inputs is, once no Add runs.
type InputsSet struct {
	pw         *Profiled
	mem        map[cache.HierarchyConfig]cache.Stats
	br         map[uarch.PredictorKind]branch.Stats
	traversals int
}

// NewInputsSet returns an empty set over pw's trace.
func (pw *Profiled) NewInputsSet() *InputsSet {
	return &InputsSet{
		pw:  pw,
		mem: make(map[cache.HierarchyConfig]cache.Stats),
		br:  make(map[uarch.PredictorKind]branch.Stats),
	}
}

// MultiInputsCtx collects the statistics of every configuration in
// cfgs in one pass over the trace (see InputsSet.Add).
func (pw *Profiled) MultiInputsCtx(ctx context.Context, cfgs []uarch.Config) (*InputsSet, error) {
	s := pw.NewInputsSet()
	if err := s.Add(ctx, cfgs); err != nil {
		return nil, err
	}
	return s, nil
}

// ExploreInputsCtx computes the annotation planes AND the model inputs
// of every configuration in cfgs from one fused pass: the cache engine
// and predictor that compute a component's plane see exactly the
// stream Add would replay, so their end-of-run statistics double as
// the model inputs. A cold validated exploration therefore performs no
// separate statistics traversal at all. Components that were already
// annotated (cache or disk hits) carry no fused statistics; one Add
// covers exactly those. The returned inputs are bit-identical to
// MultiInputsCtx's, and the annotation cache is left exactly as
// EnsureAnnotatedCtx would leave it. Statistics deposited by completed
// traversals of an attempt that another request's cancellation cut
// stay valid: their components are published, so the retry computes
// only the rest.
func (pw *Profiled) ExploreInputsCtx(ctx context.Context, cfgs []uarch.Config, workers int) (*InputsSet, error) {
	s := pw.NewInputsSet()
	_, err := retryCancelled(ctx, func() ([]pipeline.Annotation, error) {
		return pw.ensureAnnotated(ctx, cfgs, workers, s)
	})
	if err != nil {
		return nil, err
	}
	if err := s.Add(ctx, cfgs); err != nil {
		return nil, err
	}
	return s, nil
}

// Add ensures every configuration in cfgs has its statistics in the
// set, collecting the missing components in at most one trace
// traversal: one walk over the trace's chunks (trace.EachChunk) hands
// each chunk to one stack-distance engine for every missing hierarchy
// and then to every missing predictor, all reading the chunk's columns
// directly; each branch is decoded once for all the predictors. The
// walk is aborted at a chunk boundary once ctx ends, and
// then adds nothing.
func (s *InputsSet) Add(ctx context.Context, cfgs []uarch.Config) error {
	var (
		hiers []cache.HierarchyConfig
		kinds []uarch.PredictorKind
		seenH = make(map[cache.HierarchyConfig]bool)
		seenP = make(map[uarch.PredictorKind]bool)
	)
	for _, cfg := range cfgs {
		if _, ok := s.mem[cfg.Hier]; !ok && !seenH[cfg.Hier] {
			seenH[cfg.Hier] = true
			hiers = append(hiers, cfg.Hier)
		}
		if _, ok := s.br[cfg.Predictor]; !ok && !seenP[cfg.Predictor] {
			seenP[cfg.Predictor] = true
			kinds = append(kinds, cfg.Predictor)
		}
	}
	if len(hiers)+len(kinds) == 0 {
		return nil
	}

	// One engine for every hierarchy and one collector per predictor,
	// each handed every chunk in turn while it is cache-resident.
	var eng *cache.L2SpaceSim
	if len(hiers) > 0 {
		var err error
		if eng, err = cache.NewL2SpaceSim(hiers); err != nil {
			return err
		}
	}
	bcs := make([]*branch.Collector, len(kinds))
	for i, pk := range kinds {
		bcs[i] = branch.NewCollector(pk.New())
	}

	err := s.pw.Trace.EachChunk(ctx, func(ck *trace.Columns) {
		if eng != nil {
			eng.ConsumeChunk(ck)
		}
		branch.ConsumeChunk(ck, bcs, nil)
	})
	if err != nil {
		return err
	}
	s.traversals++
	s.pw.annot.mu.Lock()
	s.pw.annot.counts.StatsTraversals++
	s.pw.annot.mu.Unlock()
	for _, h := range hiers {
		cs, err := eng.StatsFor(h)
		if err != nil {
			return err
		}
		s.mem[h] = cs
	}
	for i, pk := range kinds {
		s.br[pk] = bcs[i].S
	}
	return nil
}

// Inputs assembles the model inputs for one design point of the set; a
// configuration never added is an error.
func (s *InputsSet) Inputs(cfg uarch.Config) (core.Inputs, error) {
	cs, ok := s.mem[cfg.Hier]
	if !ok {
		return core.Inputs{}, fmt.Errorf("harness: hierarchy %v not in collected space", cfg.Hier)
	}
	bs, ok := s.br[cfg.Predictor]
	if !ok {
		return core.Inputs{}, fmt.Errorf("harness: predictor %v not in collected space", cfg.Predictor)
	}
	return core.Inputs{Prof: s.pw.Prof, Mem: cs, Branch: bs}, nil
}

// Replays returns the number of trace traversals this set's Adds have
// performed — the search's statistics-economy counter. The set's
// Profiled counts them too, across all its sets (see Counters).
func (s *InputsSet) Replays() int { return s.traversals }
