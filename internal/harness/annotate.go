package harness

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// cacheAnnotates / branchAnnotates count distinct machine components
// annotated (not traversals: one traversal can cover several L2
// geometries sharing a front). Tests pin the exploration invariant
// "one annotation per distinct hierarchy and per distinct predictor".
var (
	cacheAnnotates  atomic.Int64
	branchAnnotates atomic.Int64
)

// CacheAnnotationCount returns the number of distinct cache
// hierarchies annotated so far in this process.
func CacheAnnotationCount() int64 { return cacheAnnotates.Load() }

// BranchAnnotationCount returns the number of distinct branch
// predictors annotated so far in this process.
func BranchAnnotationCount() int64 { return branchAnnotates.Load() }

// canonicalize returns the first plane in seeds with contents equal to
// p — sharing its pointer, so timing memoization can key on plane
// identity — or p itself when no seed matches. Every site that
// publishes a plane into a cache must route through this: replay
// sharing depends on equal planes collapsing to one object.
func canonicalize[P interface{ Equal(P) bool }](seeds []P, p P) P {
	for _, c := range seeds {
		if c.Equal(p) {
			return c
		}
	}
	return p
}

// MemPlane is the cache half of an annotation: per-instruction
// memory-event classes for one hierarchy, plus the exact end-of-run
// statistics the detailed simulator would report (including its
// fetch-retry accounting of I-side stalls).
type MemPlane struct {
	Classes *trace.BytePlane
	Stats   cache.Stats
}

// groupByFront buckets distinct hierarchies by their L1/TLB front —
// the unit one annotation traversal covers — in first-appearance order.
func groupByFront(hiers []cache.HierarchyConfig) [][]cache.HierarchyConfig {
	index := make(map[cache.HierarchyConfig]int)
	seen := make(map[cache.HierarchyConfig]bool)
	var groups [][]cache.HierarchyConfig
	for _, h := range hiers {
		if seen[h] {
			continue
		}
		seen[h] = true
		f := h.Front()
		i, ok := index[f]
		if !ok {
			i = len(groups)
			index[f] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], h)
	}
	return groups
}

// annotateFront runs one annotation traversal for every hierarchy
// sharing one L1/TLB front: the shared stack-distance engine resolves
// each instruction's L2 outcome for all candidate geometries at once.
// Cancellation is observed at trace chunk boundaries; an aborted
// traversal returns ctx.Err() and publishes nothing.
//
// The second return value carries each hierarchy's raw end-of-run
// statistics (before the I-stall fold below) — bit-identical to what
// InputsSet.Add's plain engine reports, so a caller that needs both
// planes and model inputs pays one traversal (see ExploreInputsCtx).
func annotateFront(ctx context.Context, tr *trace.Trace, group []cache.HierarchyConfig) (map[cache.HierarchyConfig]*MemPlane, map[cache.HierarchyConfig]cache.Stats, error) {
	eng, err := cache.NewL2SpaceSim(group)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.RecordPlanes(group); err != nil {
		return nil, nil, err
	}
	if err := tr.EachChunk(ctx, eng.ConsumeChunk); err != nil {
		return nil, nil, err
	}
	// Canonicalize: two geometries whose planes came out identical
	// (common — the trace's L2 misses are often all cold) share one
	// plane object, so timing-replay memoization can key on plane
	// identity. Stats stay per-hierarchy (writeback counts differ
	// even when the per-instruction event classes coincide).
	out := make(map[cache.HierarchyConfig]*MemPlane, len(group))
	raw := make(map[cache.HierarchyConfig]cache.Stats, len(group))
	var canon []*trace.BytePlane
	for _, h := range group {
		plane, err := eng.PlaneFor(h)
		if err != nil {
			return nil, nil, err
		}
		if q := canonicalize(canon, plane); q != plane {
			plane = q
		} else {
			canon = append(canon, plane)
		}
		stats, err := eng.StatsFor(h)
		if err != nil {
			return nil, nil, err
		}
		iStalls, err := eng.IStallEvents(h)
		if err != nil {
			return nil, nil, err
		}
		raw[h] = stats
		// The detailed simulator re-accesses the hierarchy once per
		// I-side stall when fetch resumes (a guaranteed hit that
		// bumps only IL1Accesses); fold that in so MemPlane.Stats
		// is bit-identical to Simulate's Result.Cache.
		stats.IL1Accesses += iStalls
		out[h] = &MemPlane{Classes: plane, Stats: stats}
	}
	cacheAnnotates.Add(int64(len(group)))
	return out, raw, nil
}

// safeAnnotateFront is annotateFront with panics converted to errors:
// a panic unwinding past a claimed singleflight entry would leave its
// done channel unclosed and wedge every future request for the
// component (net/http recovers handler panics, so a long-running
// service would otherwise keep the dead claim forever).
func safeAnnotateFront(ctx context.Context, tr *trace.Trace, group []cache.HierarchyConfig) (out map[cache.HierarchyConfig]*MemPlane, raw map[cache.HierarchyConfig]cache.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, raw, err = nil, nil, fmt.Errorf("harness: cache annotation panicked: %v", r)
		}
	}()
	return annotateFront(ctx, tr, group)
}

// safeAnnotateBranch annotates one predictor with the same panic
// protection (see safeAnnotateFront), returning the fused end-of-run
// predictor statistics alongside the plane. The annotation counter is
// bumped only on completion: a cancelled traversal annotated nothing.
func safeAnnotateBranch(ctx context.Context, tr *trace.Trace, pk uarch.PredictorKind) (p *trace.BitPlane, bs branch.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, bs, err = nil, branch.Stats{}, fmt.Errorf("harness: branch annotation for %v panicked: %v", pk, r)
		}
	}()
	p, bs, err = branch.AnnotateMispredicts(ctx, tr, pk.New())
	if err != nil {
		return nil, branch.Stats{}, err
	}
	branchAnnotates.Add(1)
	return p, bs, nil
}

// AnnotateCaches computes memory-event planes for every distinct
// hierarchy in hiers, one trace traversal per distinct L1/TLB front.
// Fronts are annotated in parallel across workers (≤0 means the
// process default).
func AnnotateCaches(tr *trace.Trace, hiers []cache.HierarchyConfig, workers int) (map[cache.HierarchyConfig]*MemPlane, error) {
	groups := groupByFront(hiers)
	out := make(map[cache.HierarchyConfig]*MemPlane)
	var mu sync.Mutex
	err := par.ForEachCtx(context.Background(), workers, len(groups), func(i int) error {
		part, _, err := annotateFront(context.Background(), tr, groups[i])
		if err != nil {
			return err
		}
		mu.Lock()
		for h, mp := range part {
			out[h] = mp
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnnotateBranches computes mispredict planes for every distinct
// predictor kind, in parallel across workers.
func AnnotateBranches(tr *trace.Trace, preds []uarch.PredictorKind, workers int) (map[uarch.PredictorKind]*trace.BitPlane, error) {
	var kinds []uarch.PredictorKind
	seen := make(map[uarch.PredictorKind]bool)
	for _, pk := range preds {
		if !seen[pk] {
			seen[pk] = true
			kinds = append(kinds, pk)
		}
	}
	out := make(map[uarch.PredictorKind]*trace.BitPlane, len(kinds))
	var mu sync.Mutex
	err := par.ForEachCtx(context.Background(), workers, len(kinds), func(i int) error {
		p, _, err := branch.AnnotateMispredicts(context.Background(), tr, kinds[i].New())
		if err != nil {
			return err
		}
		mu.Lock()
		out[kinds[i]] = p
		mu.Unlock()
		branchAnnotates.Add(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Canonicalize identical planes (two predictors can mispredict the
	// exact same branches) so timing memoization can key on identity.
	var canon []*trace.BitPlane
	for _, pk := range kinds {
		if q := canonicalize(canon, out[pk]); q != out[pk] {
			out[pk] = q
		} else {
			canon = append(canon, out[pk])
		}
	}
	return out, nil
}

// annotStore is the per-Profiled plane cache: planes are keyed by the
// machine component they depend on, so every design point (and every
// figure) sharing a hierarchy or predictor shares the one annotation.
// Entries are singleflight: concurrent requesters of the same
// component wait for the first computation instead of repeating it.
//
// The store is byte-accounted: every resident plane (counted once per
// distinct object — canonicalized planes shared by several entries are
// charged once) plus a fixed per-entry overhead contributes to
// usedBytes, and when a budget is set (SetAnnotBudget) completed
// entries are evicted least-recently-used until the store fits. A
// long-running process can therefore serve an unbounded stream of
// design points in bounded memory; evicted components are simply
// recomputed on next use.
type annotStore struct {
	mu     sync.Mutex
	mem    map[cache.HierarchyConfig]*annotEntry[*MemPlane]
	br     map[uarch.PredictorKind]*annotEntry[*trace.BitPlane]
	timing map[timingKey]*annotEntry[pipeline.Result]

	budget    int64 // resident-byte budget; ≤ 0 means unbounded
	usedBytes int64 // bytes charged for resident completed entries
	clock     int64 // LRU clock; entries stamp it on insert and touch
	evictions int64
	planeRefs map[any]*planeRef // distinct plane object -> charge state
}

type annotEntry[T any] struct {
	done    chan struct{}
	val     T
	err     error
	lastUse int64
}

// planeRef tracks how many resident entries reference one distinct
// plane object, so shared (canonicalized) planes are charged once and
// uncharged only when the last referencing entry is evicted.
type planeRef struct {
	bytes int64
	refs  int
}

// Fixed per-entry charges covering the entry, key and map-slot
// footprint beyond the planes themselves.
const (
	annotEntryOverheadBytes  = 160
	timingEntryOverheadBytes = 512
)

// entryDone reports whether an entry's computation has completed.
func entryDone[T any](e *annotEntry[T]) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// touchLocked stamps an entry's last use. Callers hold st.mu.
func (st *annotStore) touchLocked(lastUse *int64) {
	st.clock++
	*lastUse = st.clock
}

// retainLocked charges one reference to a plane object, adding its
// bytes on the first reference. Callers hold st.mu.
func (st *annotStore) retainLocked(p any, bytes int64) {
	if p == nil {
		return
	}
	if st.planeRefs == nil {
		st.planeRefs = make(map[any]*planeRef)
	}
	r := st.planeRefs[p]
	if r == nil {
		r = &planeRef{bytes: bytes}
		st.planeRefs[p] = r
		st.usedBytes += bytes
	}
	r.refs++
}

// releaseLocked drops one reference to a plane object, uncharging its
// bytes when the last reference goes. Callers hold st.mu.
func (st *annotStore) releaseLocked(p any) {
	if p == nil {
		return
	}
	r := st.planeRefs[p]
	if r == nil {
		return
	}
	r.refs--
	if r.refs <= 0 {
		st.usedBytes -= r.bytes
		delete(st.planeRefs, p)
	}
}

// seedsLocked snapshots every charged plane object — resident entries
// and planes kept alive only by memoized timing results — as
// canonicalization seeds. Seeding from planeRefs rather than the
// entry maps matters under a byte budget: when a component entry is
// evicted but its timing memos survive, a recomputed plane equal to
// the evicted one adopts the old pointer, so those memos become
// hittable again instead of dead weight. Callers hold st.mu.
func (st *annotStore) seedsLocked() (mem []*trace.BytePlane, br []*trace.BitPlane) {
	for p := range st.planeRefs {
		switch q := p.(type) {
		case *trace.BytePlane:
			mem = append(mem, q)
		case *trace.BitPlane:
			br = append(br, q)
		}
	}
	return mem, br
}

// chargeMemLocked publishes a completed cache-annotation entry into
// the accounting. Callers hold st.mu.
func (st *annotStore) chargeMemLocked(e *annotEntry[*MemPlane]) {
	st.retainLocked(e.val.Classes, e.val.Classes.SizeBytes())
	st.usedBytes += annotEntryOverheadBytes
	st.touchLocked(&e.lastUse)
}

// chargeBrLocked publishes a completed branch-annotation entry.
func (st *annotStore) chargeBrLocked(e *annotEntry[*trace.BitPlane]) {
	st.retainLocked(e.val, e.val.SizeBytes())
	st.usedBytes += annotEntryOverheadBytes
	st.touchLocked(&e.lastUse)
}

// chargeTimingLocked publishes a completed memoized timing entry; the
// key's plane references keep shared planes charged while any timing
// result depends on them.
func (st *annotStore) chargeTimingLocked(key timingKey, e *annotEntry[pipeline.Result]) {
	st.retainLocked(key.mem, key.mem.SizeBytes())
	st.retainLocked(key.br, key.br.SizeBytes())
	st.usedBytes += timingEntryOverheadBytes
	st.touchLocked(&e.lastUse)
}

// evictLocked evicts completed entries least-recently-used-first until
// the store fits its budget (or only in-flight entries remain).
// Callers hold st.mu.
func (st *annotStore) evictLocked() {
	if st.budget <= 0 {
		return
	}
	for st.usedBytes > st.budget {
		const (
			kindNone = iota
			kindMem
			kindBr
			kindTiming
		)
		kind, oldest := kindNone, int64(0)
		var (
			memK cache.HierarchyConfig
			brK  uarch.PredictorKind
			timK timingKey
		)
		better := func(lastUse int64) bool { return kind == kindNone || lastUse < oldest }
		for k, e := range st.mem {
			if entryDone(e) && better(e.lastUse) {
				kind, oldest, memK = kindMem, e.lastUse, k
			}
		}
		for k, e := range st.br {
			if entryDone(e) && better(e.lastUse) {
				kind, oldest, brK = kindBr, e.lastUse, k
			}
		}
		for k, e := range st.timing {
			if entryDone(e) && better(e.lastUse) {
				kind, oldest, timK = kindTiming, e.lastUse, k
			}
		}
		switch kind {
		case kindNone:
			return // everything resident is in flight; retry on next publish
		case kindMem:
			st.releaseLocked(st.mem[memK].val.Classes)
			st.usedBytes -= annotEntryOverheadBytes
			delete(st.mem, memK)
		case kindBr:
			st.releaseLocked(st.br[brK].val)
			st.usedBytes -= annotEntryOverheadBytes
			delete(st.br, brK)
		case kindTiming:
			st.releaseLocked(timK.mem)
			st.releaseLocked(timK.br)
			st.usedBytes -= timingEntryOverheadBytes
			delete(st.timing, timK)
		}
		st.evictions++
	}
}

// timingKey captures every input of one design point's replay in
// pipeline.SimulateAnnotatedBatch other than the trace: the timing
// parameters of the design point and the identity of the
// (canonicalized) annotation planes. Two design points with equal
// keys replay to the same timing Result — only their Result.Cache
// (stamped from MemPlane.Stats afterwards) can differ — so e.g. the
// Table 2 space's 192 points collapse to one replay per distinct
// (width, depth/frequency, plane-content) combination.
type timingKey struct {
	width, depth        int
	mulLat, divLat      int
	l2hit, l2miss, walk int
	mem                 *trace.BytePlane
	br                  *trace.BitPlane
}

func timingKeyOf(cfg uarch.Config, mem *trace.BytePlane, br *trace.BitPlane) timingKey {
	return timingKey{
		width: cfg.Width, depth: cfg.FrontEndDepth,
		mulLat: cfg.MulLatency, divLat: cfg.DivLatency,
		l2hit: cfg.L2HitCycles(), l2miss: cfg.L2MissCycles(), walk: cfg.TLBWalkCycles(),
		mem: mem, br: br,
	}
}

// EnsureAnnotatedCtx computes (or waits for) the annotation planes of
// every distinct hierarchy and predictor in cfgs: one cache-annotation
// traversal per distinct front covers all its L2 geometries, and each
// distinct predictor is annotated once. Front and predictor traversals
// are independent, so they all fan out through one worker pool.
// Subsequent AnnotationCtx/SimulateDetailedBatchCtx calls for these
// configurations are cache hits; a component whose annotation failed
// is evicted so a later call can retry it.
//
// The claimed traversals run under ctx (cancellation lands at trace
// chunk boundaries), and waits on other requests' claims abandon once
// ctx ends. A cancellation error observed from some other request's
// claim while this ctx is still live is not reported (see
// retryCancelled).
func (pw *Profiled) EnsureAnnotatedCtx(ctx context.Context, cfgs []uarch.Config, workers int) error {
	_, err := retryCancelled(ctx, func() ([]pipeline.Annotation, error) {
		return pw.ensureAnnotated(ctx, cfgs, workers, nil)
	})
	return err
}

// AnnotationCtx returns the annotation planes for one design point,
// computing and caching them if needed, under the EnsureAnnotatedCtx
// contract.
func (pw *Profiled) AnnotationCtx(ctx context.Context, cfg uarch.Config) (pipeline.Annotation, error) {
	anns, err := retryCancelled(ctx, func() ([]pipeline.Annotation, error) {
		return pw.ensureAnnotated(ctx, []uarch.Config{cfg}, 1, nil)
	})
	if err != nil {
		return pipeline.Annotation{}, err
	}
	return anns[0], nil
}

// claimLocked returns m's entry for k, stamping its use, or installs a
// fresh in-flight entry the caller has claimed and must resolve.
// Callers hold st.mu.
func claimLocked[K comparable, T any](st *annotStore, m map[K]*annotEntry[T], k K) (e *annotEntry[T], mine bool) {
	if e, ok := m[k]; ok {
		st.touchLocked(&e.lastUse)
		return e, false
	}
	e = &annotEntry[T]{done: make(chan struct{})}
	m[k] = e
	return e, true
}

// await returns a resolved entry's outcome, waiting for an in-flight
// one until ctx ends. An entry already resolved is returned even when
// ctx has ended.
func await[T any](ctx context.Context, e *annotEntry[T]) (T, error) {
	if !entryDone(e) {
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
	return e.val, e.err
}

// ensureAnnotated is one claim/compute/publish attempt over the
// distinct components of cfgs. It returns the annotation of every
// configuration, indexed like cfgs, from the entries this call
// published or waited on — so the planes stay valid even when the
// byte budget evicts those entries at once. When sink is non-nil,
// every component this call computes fresh also deposits its raw
// machine statistics there — the fused statistics behind
// ExploreInputsCtx; cache-hit and disk-loaded components deposit
// nothing.
func (pw *Profiled) ensureAnnotated(ctx context.Context, cfgs []uarch.Config, workers int, sink *InputsSet) ([]pipeline.Annotation, error) {
	st := &pw.annot
	st.mu.Lock()
	if st.mem == nil {
		st.mem = make(map[cache.HierarchyConfig]*annotEntry[*MemPlane])
		st.br = make(map[uarch.PredictorKind]*annotEntry[*trace.BitPlane])
	}
	var (
		mineH []cache.HierarchyConfig
		mineP []uarch.PredictorKind
		memE  = make(map[cache.HierarchyConfig]*annotEntry[*MemPlane])
		brE   = make(map[uarch.PredictorKind]*annotEntry[*trace.BitPlane])
	)
	for _, cfg := range cfgs {
		e, mine := claimLocked(st, st.mem, cfg.Hier)
		if mine {
			mineH = append(mineH, cfg.Hier)
		}
		memE[cfg.Hier] = e
		be, mine := claimLocked(st, st.br, cfg.Predictor)
		if mine {
			mineP = append(mineP, cfg.Predictor)
		}
		brE[cfg.Predictor] = be
	}
	// Snapshot canonicalization seeds — but only when this call
	// actually claimed annotation work: a newly computed plane equal
	// to a charged one canonicalizes onto it, so timing memoization
	// keeps sharing replays across batches. Pure cache-hit calls
	// (every per-point call after the up-front annotation pass) skip
	// the walk entirely.
	var memSeeds []*trace.BytePlane
	var brSeeds []*trace.BitPlane
	if len(mineH)+len(mineP) > 0 {
		memSeeds, brSeeds = st.seedsLocked()
	}
	st.mu.Unlock()

	if len(mineH)+len(mineP) > 0 {
		// Disk tier: rehydrate claimed components from the artifact
		// store first. A stored plane is bit-identical to a computed
		// one (content-addressed, checksum-verified), so it skips the
		// annotation traversal — and the annotation counters, which is
		// what lets tests pin "a warm process annotates nothing".
		// Anything not on disk (or unusable) is computed below.
		memRes := make(map[cache.HierarchyConfig]*MemPlane, len(mineH))
		memErrs := make(map[cache.HierarchyConfig]error)
		brResM := make(map[uarch.PredictorKind]*trace.BitPlane, len(mineP))
		brErrs := make(map[uarch.PredictorKind]error)
		computeH, computeP := mineH, mineP
		if pw.store != nil {
			computeH = nil
			for _, h := range mineH {
				if classes, stats, err := pw.store.LoadMemPlane(pw.storeKey, h); err == nil {
					memRes[h] = &MemPlane{Classes: classes, Stats: stats}
				} else {
					computeH = append(computeH, h)
				}
			}
			computeP = nil
			for _, pk := range mineP {
				if bp, err := pw.store.LoadBranchPlane(pw.storeKey, uarch.PredictorName(pk)); err == nil {
					brResM[pk] = bp
				} else {
					computeP = append(computeP, pk)
				}
			}
		}

		groups := groupByFront(computeH)
		nf := len(groups)
		frontRes := make([]map[cache.HierarchyConfig]*MemPlane, nf)
		frontRaw := make([]map[cache.HierarchyConfig]cache.Stats, nf)
		frontErr := make([]error, nf)
		brRes := make([]*trace.BitPlane, len(computeP))
		brSt := make([]branch.Stats, len(computeP))
		brErr := make([]error, len(computeP))
		// One pool for cache fronts and predictors together: the
		// traversals are independent, so none serializes behind the
		// others. Per-task errors (including converted panics) are
		// recorded, not returned, so one bad hierarchy cannot fail
		// unrelated components. Cancellation both aborts running
		// traversals (at chunk boundaries) and stops unstarted ones
		// from being claimed; tasks the cut skipped entirely are marked
		// with the cancellation error below so their claims resolve.
		cutErr := par.ForEachCtx(ctx, workers, nf+len(computeP), func(i int) error {
			if i < nf {
				frontRes[i], frontRaw[i], frontErr[i] = safeAnnotateFront(ctx, pw.Trace, groups[i])
			} else {
				brRes[i-nf], brSt[i-nf], brErr[i-nf] = safeAnnotateBranch(ctx, pw.Trace, computeP[i-nf])
			}
			return nil
		})
		// Write-through of every fresh plane, run below before
		// canonicalization swaps pointers (contents are equal either
		// way).
		var saves []func()
		for i, group := range groups {
			if frontErr[i] == nil && frontRes[i] == nil {
				frontErr[i] = cutErr
			}
			for _, h := range group {
				if frontErr[i] != nil {
					memErrs[h] = frontErr[i]
					continue
				}
				mp := frontRes[i][h]
				if sink != nil {
					sink.mem[h] = frontRaw[i][h]
				}
				if pw.store != nil {
					saves = append(saves, func() { _ = pw.store.SaveMemPlane(pw.storeKey, h, mp.Classes, mp.Stats) })
				}
				memRes[h] = mp
			}
		}
		for i, pk := range computeP {
			if brErr[i] == nil && brRes[i] == nil {
				brErr[i] = cutErr
			}
			if brErr[i] != nil {
				brErrs[pk] = brErr[i]
				continue
			}
			if sink != nil {
				sink.br[pk] = brSt[i]
			}
			if pw.store != nil {
				bp := brRes[i]
				saves = append(saves, func() { _ = pw.store.SaveBranchPlane(pw.storeKey, uarch.PredictorName(pk), bp) })
			}
			brResM[pk] = brRes[i]
		}
		// The saves are independent files, so they fan out over the
		// same workers; each file's bytes do not depend on the order.
		// They all finish before the call returns. Save errors are
		// ignored: the disk tier can only skip work.
		_ = par.ForEachCtx(context.Background(), workers, len(saves), func(i int) error {
			saves[i]()
			return nil
		})

		// Canonicalize outside the lock (plane comparison walks whole
		// chunks), then publish, charge and budget-evict under it.
		// Disk-loaded planes canonicalize too: two hierarchies whose
		// stored planes coincide still collapse to one object, so the
		// byte accounting and timing memoization behave exactly as for
		// computed planes.
		for _, h := range mineH {
			if mp := memRes[h]; mp != nil {
				mp.Classes = canonicalize(memSeeds, mp.Classes)
				memSeeds = append(memSeeds, mp.Classes)
			}
		}
		for _, pk := range mineP {
			if bp := brResM[pk]; bp != nil {
				q := canonicalize(brSeeds, bp)
				brResM[pk] = q
				brSeeds = append(brSeeds, q)
			}
		}

		// Failed entries are removed so a later call can retry;
		// waiters of this attempt observe the error.
		var firstErr error
		st.mu.Lock()
		for _, h := range mineH {
			e := memE[h]
			if e.err = memErrs[h]; e.err != nil {
				if st.mem[h] == e {
					delete(st.mem, h)
				}
			} else {
				e.val = memRes[h]
				st.chargeMemLocked(e)
			}
			if firstErr == nil {
				firstErr = e.err
			}
			close(e.done)
		}
		for _, pk := range mineP {
			e := brE[pk]
			if e.err = brErrs[pk]; e.err != nil {
				if st.br[pk] == e {
					delete(st.br, pk)
				}
			} else {
				e.val = brResM[pk]
				st.chargeBrLocked(e)
			}
			if firstErr == nil {
				firstErr = e.err
			}
			close(e.done)
		}
		st.evictLocked()
		st.mu.Unlock()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	// Every claim of this call is resolved above, so abandoning a wait
	// on another request's claim when ctx ends wedges nobody.
	anns := make([]pipeline.Annotation, len(cfgs))
	for i, cfg := range cfgs {
		mp, err := await(ctx, memE[cfg.Hier])
		if err != nil {
			return nil, err
		}
		bp, err := await(ctx, brE[cfg.Predictor])
		if err != nil {
			return nil, err
		}
		anns[i] = pipeline.Annotation{Mem: mp.Classes, MemStats: mp.Stats, Br: bp}
	}
	return anns, nil
}

// SetAnnotBudget bounds the resident bytes of the annotation-plane and
// memoized-timing cache: whenever charged bytes exceed the budget,
// completed entries are evicted least-recently-used-first (shared
// canonicalized planes are uncharged only when their last referencing
// entry goes). bytes ≤ 0 removes the bound. Evicted components are
// recomputed transparently on next use.
func (pw *Profiled) SetAnnotBudget(bytes int64) {
	st := &pw.annot
	st.mu.Lock()
	st.budget = bytes
	st.evictLocked()
	st.mu.Unlock()
}

// AnnotBytes returns the bytes currently charged for resident
// annotation planes and memoized timing results.
func (pw *Profiled) AnnotBytes() int64 {
	st := &pw.annot
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.usedBytes
}

// AnnotEvictions returns how many cache entries the byte budget has
// evicted from this workload's annotation store.
func (pw *Profiled) AnnotEvictions() int64 {
	st := &pw.annot
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evictions
}
