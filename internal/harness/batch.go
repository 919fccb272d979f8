package harness

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// safeSimulateAnnotatedBatch runs the timing replay kernel with
// panics converted to errors (see safeAnnotateFront): a panic
// unwinding past claimed timing entries would wedge their waiters.
func safeSimulateAnnotatedBatch(ctx context.Context, tr *trace.Trace, pts []pipeline.BatchPoint) (res []pipeline.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("harness: detailed simulation of %d points panicked: %v", len(pts), r)
		}
	}()
	return pipeline.SimulateAnnotatedBatch(ctx, tr, pts)
}

// SimulateDetailedBatchCtx runs the detailed cycle-accurate simulation
// of every design point in cfgs — one point is a one-element slice.
// The trace is annotated once per distinct hierarchy and predictor
// (cached on pw), and the points are deduplicated through a timing
// memo keyed by (timing parameters, plane identity): design points
// whose planes canonicalized to the same objects share one replay, and
// only the hierarchy statistics are stamped per configuration. All
// memo-missing points replay together in one pass over each trace
// chunk (pipeline.SimulateAnnotatedBatch), sharded across workers (≤0
// means the process default). Results are indexed like cfgs and each
// is bit-identical to pipeline.Simulate's. A front-end depth above 16
// is an error (the replay kernel's drain ring has 16 slots), although
// uarch.Config.Validate accepts it; Table 2 and the extended domain
// stop at 6.
//
// Own replays abort at chunk boundaries once ctx ends, waits on other
// requests' in-flight entries abandon promptly, and an entry that
// failed with another request's cancellation is recomputed rather
// than reported (the same contract as EnsureAnnotatedCtx). A failed or
// cancelled batch resolves and removes every timing entry it claimed —
// no partial memo entries survive.
func (pw *Profiled) SimulateDetailedBatchCtx(ctx context.Context, cfgs []uarch.Config, workers int) ([]pipeline.Result, error) {
	return retryCancelled(ctx, func() ([]pipeline.Result, error) {
		return pw.simulateDetailedBatch(ctx, cfgs, workers)
	})
}

func (pw *Profiled) simulateDetailedBatch(ctx context.Context, cfgs []uarch.Config, workers int) ([]pipeline.Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	anns, err := pw.ensureAnnotated(ctx, cfgs, workers)
	if err != nil {
		return nil, err
	}

	// Partition the points over the timing memo: the first point of
	// each memo-missing key claims it (singleflight — concurrent
	// requests for the same key wait below), repeat keys within this
	// call ride the first point's entry, and present keys are waited on.
	st := &pw.annot
	st.lock()
	keys := make([]timingKey, len(cfgs))
	entries := make(map[timingKey]*memoEntry[pipeline.Result])
	var claimKeys []timingKey
	var claimRep []int // index of the claiming (representative) config
	for i, cfg := range cfgs {
		k := timingKeyOf(cfg, anns[i].Mem, anns[i].Br)
		keys[i] = k
		if _, seen := entries[k]; seen {
			continue
		}
		e, mine := st.timing.claim(st, k)
		entries[k] = e
		if mine {
			claimKeys = append(claimKeys, k)
			claimRep = append(claimRep, i)
		}
	}
	st.mu.Unlock()

	// Replay every claimed key in config-parallel batches, one shard
	// per worker. Every claim is resolved exactly once below — a shard
	// error (including cancellation and converted panics) resolves its
	// claims with the error and removes them so a later call retries;
	// completed shards publish even when a sibling failed, so their
	// work is kept.
	if len(claimKeys) > 0 {
		ns := par.Workers(workers)
		if ns > len(claimKeys) {
			ns = len(claimKeys)
		}
		shardRes := make([][]pipeline.Result, ns)
		shardErr := make([]error, ns)
		lo := func(s int) int { return s * len(claimKeys) / ns }
		cutErr := par.ForEachCtx(ctx, workers, ns, func(s int) error {
			a, b := lo(s), lo(s+1)
			pts := make([]pipeline.BatchPoint, b-a)
			for j := a; j < b; j++ {
				i := claimRep[j]
				pts[j-a] = pipeline.BatchPoint{Cfg: cfgs[i], Ann: anns[i]}
			}
			shardRes[s], shardErr[s] = safeSimulateAnnotatedBatch(ctx, pw.Trace, pts)
			return nil
		})
		var firstErr error
		st.mu.Lock()
		for s := 0; s < ns; s++ {
			err := shardErr[s]
			if err == nil && shardRes[s] == nil {
				err = cutErr // shard never ran: the cancellation cut it
			}
			for j := lo(s); j < lo(s+1); j++ {
				k := claimKeys[j]
				var res pipeline.Result
				if err == nil {
					res = shardRes[s][j-lo(s)]
					res.Cache = cache.Stats{} // stamped per configuration on use
				}
				firstErr = cmp.Or(firstErr, st.timing.resolve(st, k, entries[k], res, err))
			}
		}
		st.evictLocked()
		st.mu.Unlock()
		if firstErr != nil {
			return nil, firstErr
		}
	}

	// Waits on other requests' claims abandon when ctx ends — every
	// claim of this call is already resolved above.
	out := make([]pipeline.Result, len(cfgs))
	for i := range cfgs {
		res, err := entries[keys[i]].await(ctx)
		if err != nil {
			return nil, err
		}
		res.Cache = anns[i].MemStats
		out[i] = res
	}
	return out, nil
}
