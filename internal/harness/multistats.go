package harness

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// InputsSet is one caller's view of its workload's statistics memo:
// the mixed program/machine statistics of the design points added to
// it, from which it resolves the model inputs of any of them. The memo
// (two tables of the Profiled's annotStore: cache.Stats by hierarchy,
// branch.Stats by predictor) is shared by every set, exploration and
// served prediction on the workload, so a component is collected once
// while it stays resident, whoever asks first. A batch whose components
// are all resident costs no walk of the trace. The statistics are
// bit-identical however the components are split across walks: each
// engine's and predictor's results are independent of what else shares
// its walk.
//
// Add is not safe for concurrent use on one set; Inputs is, once no
// Add runs. Distinct sets on one workload may Add concurrently.
type InputsSet struct {
	pw   *Profiled
	mem  map[cache.HierarchyConfig]cache.Stats
	br   map[uarch.PredictorKind]branch.Stats
	adds int
}

// NewInputsSet returns an empty set over pw's memo.
func (pw *Profiled) NewInputsSet() *InputsSet {
	return &InputsSet{
		pw:  pw,
		mem: make(map[cache.HierarchyConfig]cache.Stats),
		br:  make(map[uarch.PredictorKind]branch.Stats),
	}
}

// MultiInputsCtx resolves the statistics of every configuration in
// cfgs from the workload's memo, collecting the missing components in
// at most one walk of the trace (see InputsSet.Add).
func (pw *Profiled) MultiInputsCtx(ctx context.Context, cfgs []uarch.Config) (*InputsSet, error) {
	s := pw.NewInputsSet()
	if err := s.Add(ctx, cfgs); err != nil {
		return nil, err
	}
	return s, nil
}

// ExploreInputsCtx computes the annotation planes AND the model inputs
// of every configuration in cfgs. The cache engine and predictor that
// compute a component's plane see exactly the stream the statistics
// walk would, so each annotation walk publishes its end-of-run
// statistics into the memo, and a cold validated exploration performs
// no separate statistics walk at all. Components that were already
// annotated (memo or disk hits) carry no fresh statistics; one walk
// covers those of them the memo lacks. The returned inputs are
// bit-identical to MultiInputsCtx's, and the annotation cache is left
// exactly as EnsureAnnotatedCtx leaves it.
func (pw *Profiled) ExploreInputsCtx(ctx context.Context, cfgs []uarch.Config, workers int) (*InputsSet, error) {
	if err := pw.EnsureAnnotatedCtx(ctx, cfgs, workers); err != nil {
		return nil, err
	}
	return pw.MultiInputsCtx(ctx, cfgs)
}

// Add ensures every configuration in cfgs has its statistics in the
// set. The components new to the set are resolved from the memo: the
// ones no request holds are claimed and collected in one walk of the
// trace (see collectStats), the rest are awaited. The walk is aborted
// at a chunk boundary once ctx ends, and Add then adds nothing.
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
	ms, bs, err := s.pw.statistics(ctx, hiers, kinds)
	if err != nil {
		return err
	}
	for i, h := range hiers {
		s.mem[h] = ms[i]
	}
	for i, pk := range kinds {
		s.br[pk] = bs[i]
	}
	s.adds++
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

// Replays returns the number of this set's Adds that brought it
// components it did not hold — the search's statistics-economy
// counter, one per generation that needed new statistics. Whether such
// an Add walked the trace depends on the memo; the walks themselves
// are counted per workload (see Counters).
func (s *InputsSet) Replays() int { return s.adds }

// statistics resolves the statistics of the distinct components hiers
// and kinds from the memo, indexed like them: it claims the components
// no request holds, collects all of those in one walk, publishes them
// and awaits the others. A wait that ends in another request's
// cancellation while ctx is still live claims again (as retryCancelled
// does); this call's own failed walk is returned as it is.
func (pw *Profiled) statistics(ctx context.Context, hiers []cache.HierarchyConfig, kinds []uarch.PredictorKind) ([]cache.Stats, []branch.Stats, error) {
	// An unusable hierarchy fails this call before it claims anything,
	// so it never fails another request's wait.
	for _, h := range hiers {
		if err := cache.Stackable(h); err != nil {
			return nil, nil, err
		}
	}
	st := &pw.annot
	memE := make([]*memoEntry[cache.Stats], len(hiers))
	brE := make([]*memoEntry[branch.Stats], len(kinds))
	ms := make([]cache.Stats, len(hiers))
	bs := make([]branch.Stats, len(kinds))
	for {
		var mineH, mineP []int // indices of the components this call claims
		st.lock()
		for i, h := range hiers {
			e, mine := st.cstats.claim(st, h)
			if mine {
				mineH = append(mineH, i)
			}
			memE[i] = e
		}
		for i, pk := range kinds {
			e, mine := st.bstats.claim(st, pk)
			if mine {
				mineP = append(mineP, i)
			}
			brE[i] = e
		}
		st.mu.Unlock()

		if len(mineH)+len(mineP) > 0 {
			cs, ps, err := collectStats(ctx, pw.Trace, pick(hiers, mineH), pick(kinds, mineP))
			st.mu.Lock()
			if err == nil {
				st.counts.StatsTraversals++
			}
			for j, i := range mineH {
				var v cache.Stats
				if err == nil {
					v = cs[j]
				}
				st.cstats.resolve(st, hiers[i], memE[i], v, err)
			}
			for j, i := range mineP {
				var v branch.Stats
				if err == nil {
					v = ps[j]
				}
				st.bstats.resolve(st, kinds[i], brE[i], v, err)
			}
			st.evictLocked()
			st.mu.Unlock()
			if err != nil {
				return nil, nil, err
			}
		}

		// Every claim of this call is resolved above, so abandoning a
		// wait when ctx ends wedges nobody.
		err := awaitAll(ctx, memE, ms)
		if err == nil {
			err = awaitAll(ctx, brE, bs)
		}
		if err == nil {
			return ms, bs, nil
		}
		if !isCancellation(err) || ctx.Err() != nil {
			return nil, nil, err
		}
	}
}

// awaitAll awaits every entry into out, indexed alike.
func awaitAll[V any](ctx context.Context, es []*memoEntry[V], out []V) error {
	for i, e := range es {
		v, err := e.await(ctx)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// pick returns the elements of ks at the indices idx.
func pick[K any](ks []K, idx []int) []K {
	out := make([]K, len(idx))
	for j, i := range idx {
		out[j] = ks[i]
	}
	return out
}

// collectStats is the statistics walk: one walk over the trace's
// chunks (trace.EachChunk) hands each chunk to one stack-distance
// engine for every hierarchy of hiers and then to every predictor of
// kinds, all reading the chunk's columns directly; each branch is
// decoded once for all the predictors. The results are indexed like
// hiers and kinds. Cancellation aborts the walk at a chunk boundary
// with ctx.Err(), and a panic is returned as an error, so a claimed
// memo entry is always resolved.
func collectStats(ctx context.Context, tr *trace.Trace, hiers []cache.HierarchyConfig, kinds []uarch.PredictorKind) (ms []cache.Stats, bs []branch.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			ms, bs, err = nil, nil, fmt.Errorf("harness: statistics walk panicked: %v", r)
		}
	}()
	var eng *cache.L2SpaceSim
	if len(hiers) > 0 {
		if eng, err = cache.NewL2SpaceSim(hiers); err != nil {
			return nil, nil, err
		}
	}
	bcs := make([]*branch.Collector, len(kinds))
	for i, pk := range kinds {
		bcs[i] = branch.NewCollector(pk.New())
	}
	err = tr.EachChunk(ctx, func(ck *trace.Columns) {
		if eng != nil {
			eng.ConsumeChunk(ck)
		}
		branch.ConsumeChunk(ck, bcs, nil)
	})
	if err != nil {
		return nil, nil, err
	}
	ms = make([]cache.Stats, len(hiers))
	for i, h := range hiers {
		if ms[i], err = eng.StatsFor(h); err != nil {
			return nil, nil, err
		}
	}
	bs = make([]branch.Stats, len(kinds))
	for i, bc := range bcs {
		bs[i] = bc.S
	}
	return ms, bs, nil
}
