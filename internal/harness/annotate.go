package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/uarch"
)

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
// the statistics walk reports, so ensureAnnotated publishes them into
// the statistics memo and a caller that needs both planes and model
// inputs pays one traversal (see ExploreInputsCtx).
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
// predictor statistics alongside the plane.
func safeAnnotateBranch(ctx context.Context, tr *trace.Trace, pk uarch.PredictorKind) (p *trace.BitPlane, bs branch.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, bs, err = nil, branch.Stats{}, fmt.Errorf("harness: branch annotation for %v panicked: %v", pk, r)
		}
	}()
	return branch.AnnotateMispredicts(ctx, tr, pk.New())
}

// AnnotateCaches computes memory-event planes for every distinct
// hierarchy in hiers, one trace traversal per distinct L1/TLB front.
// Fronts are annotated in parallel across workers (≤0 means the
// process default). It is a layer probe outside any Profiled's memo:
// nothing is cached and nothing counted.
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
// predictor kind, in parallel across workers. Like AnnotateCaches it
// caches and counts nothing.
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

// annotStore is the per-Profiled memo: planes and model-input
// statistics are keyed by the machine component they depend on, so
// every design point (and every figure, exploration and served
// prediction) sharing a hierarchy or predictor shares the one
// annotation and the one statistics walk, and timing results are keyed
// by timingKey. All five tables are singleflight (see memo), and the
// store counts the work done on its workload (see Counters).
//
// The store is byte-accounted: every resident plane (counted once per
// distinct object — canonicalized planes shared by several entries are
// charged once) plus a fixed per-entry overhead contributes to
// counts.Bytes, and when a budget is set (SetAnnotBudget) completed
// entries are evicted least-recently-used until the store fits. A
// long-running process can therefore serve an unbounded stream of
// design points in bounded memory; evicted components are simply
// recomputed on next use.
type annotStore struct {
	mu     sync.Mutex
	mem    memo[cache.HierarchyConfig, *MemPlane]
	br     memo[uarch.PredictorKind, *trace.BitPlane]
	timing memo[timingKey, pipeline.Result]
	cstats memo[cache.HierarchyConfig, cache.Stats] // model inputs by hierarchy (see InputsSet)
	bstats memo[uarch.PredictorKind, branch.Stats]  // model inputs by predictor

	budget    int64               // resident-byte budget; ≤ 0 means unbounded
	clock     int64               // LRU clock; entries stamp it on insert and touch
	planeRefs map[plane]*planeRef // distinct plane object -> charge state
	counts    Counters            // work counters and charged bytes
}

// Counters is a snapshot of one workload's annotation and statistics
// work and of its memo's residency. A Fresh copy starts from zero.
type Counters struct {
	CacheAnnotations  int64 // hierarchies annotated fresh (disk loads count nothing)
	BranchAnnotations int64 // predictors annotated fresh (disk loads count nothing)
	StatsTraversals   int64 // completed statistics walks (memo misses of InputsSet.Add)
	Bytes             int64 // bytes charged for resident planes, timing results and statistics
	Evictions         int64 // memo entries the byte budget evicted
}

// memo is one singleflight table of the store: the first requester of
// a key claims an in-flight entry and resolves it exactly once, later
// requesters await it, and the budget evicts completed entries least
// recently used first. planes lists the plane objects a completed
// entry keeps charged; overhead is its fixed per-entry charge. Every
// method runs under the store's lock.
type memo[K comparable, V any] struct {
	entries  map[K]*memoEntry[V]
	overhead int64
	planes   func(K, V) []plane
}

// table is what eviction needs of a memo, whatever its key and value.
type table interface {
	oldest(*annotStore) (int64, func())
}

type memoEntry[V any] struct {
	done    chan struct{}
	val     V
	err     error
	lastUse int64
}

// plane is a charged plane object (*trace.BytePlane or *trace.BitPlane).
type plane interface{ SizeBytes() int64 }

// planeRef tracks how many resident entries reference one distinct
// plane object, so shared (canonicalized) planes are charged once and
// uncharged only when the last referencing entry is evicted.
type planeRef struct {
	bytes int64
	refs  int
}

// Fixed per-entry charges covering the entry, key and map-slot
// footprint beyond the planes themselves; a statistics entry holds its
// value inline (a cache.Stats is 88 bytes, a branch.Stats 32).
const (
	annotEntryOverheadBytes  = 160
	timingEntryOverheadBytes = 512
	statsEntryOverheadBytes  = 256
)

func newMemo[K comparable, V any](overhead int64, planes func(K, V) []plane) memo[K, V] {
	return memo[K, V]{entries: make(map[K]*memoEntry[V]), overhead: overhead, planes: planes}
}

// lock takes st.mu, readying the tables on first use: a zero store is
// an empty one.
func (st *annotStore) lock() {
	st.mu.Lock()
	if st.mem.entries == nil {
		st.mem = newMemo(annotEntryOverheadBytes, func(_ cache.HierarchyConfig, mp *MemPlane) []plane { return []plane{mp.Classes} })
		st.br = newMemo(annotEntryOverheadBytes, func(_ uarch.PredictorKind, bp *trace.BitPlane) []plane { return []plane{bp} })
		// A timing result keeps the planes of its key charged while it
		// stays resident.
		st.timing = newMemo(timingEntryOverheadBytes, func(k timingKey, _ pipeline.Result) []plane { return []plane{k.mem, k.br} })
		st.cstats = newMemo(statsEntryOverheadBytes, func(cache.HierarchyConfig, cache.Stats) []plane { return nil })
		st.bstats = newMemo(statsEntryOverheadBytes, func(uarch.PredictorKind, branch.Stats) []plane { return nil })
		st.planeRefs = make(map[plane]*planeRef)
	}
}

// claim returns the entry for k, stamping its use, or installs a fresh
// in-flight entry the caller has claimed and must resolve.
func (t *memo[K, V]) claim(st *annotStore, k K) (e *memoEntry[V], mine bool) {
	if e, ok := t.entries[k]; ok {
		st.touchLocked(&e.lastUse)
		return e, false
	}
	e = &memoEntry[V]{done: make(chan struct{})}
	t.entries[k] = e
	return e, true
}

// resolve settles a claimed entry and releases its waiters: a value is
// published and charged, a failure removed so a later call can retry
// (this attempt's waiters observe the error). It returns err.
func (t *memo[K, V]) resolve(st *annotStore, k K, e *memoEntry[V], v V, err error) error {
	if e.err = err; err != nil {
		if t.entries[k] == e {
			delete(t.entries, k)
		}
	} else {
		e.val = v
		for _, p := range t.planes(k, v) {
			st.retainLocked(p)
		}
		st.counts.Bytes += t.overhead
		st.touchLocked(&e.lastUse)
	}
	close(e.done)
	return err
}

// offer publishes v under k unless k already has an entry, resolved
// or in flight.
func (t *memo[K, V]) offer(st *annotStore, k K, v V) {
	if e, mine := t.claim(st, k); mine {
		t.resolve(st, k, e, v, nil)
	}
}

// oldest returns the last use of the table's least recently used
// completed entry and a function evicting it; evict is nil when every
// entry is in flight.
func (t *memo[K, V]) oldest(st *annotStore) (lastUse int64, evict func()) {
	var key K
	found := false
	for k, e := range t.entries {
		if e.resolved() && (!found || e.lastUse < lastUse) {
			key, lastUse, found = k, e.lastUse, true
		}
	}
	if !found {
		return 0, nil
	}
	return lastUse, func() {
		for _, p := range t.planes(key, t.entries[key].val) {
			st.releaseLocked(p)
		}
		st.counts.Bytes -= t.overhead
		delete(t.entries, key)
	}
}

// resolved reports whether an entry's computation has completed.
func (e *memoEntry[V]) resolved() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// await returns a resolved entry's outcome, waiting for an in-flight
// one until ctx ends. An entry already resolved is returned even when
// ctx has ended. It is the one memo operation run without the lock.
func (e *memoEntry[V]) await(ctx context.Context) (V, error) {
	if !e.resolved() {
		select {
		case <-e.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	return e.val, e.err
}

// evictLocked evicts completed entries of any table least-recently-
// used-first until the store fits its budget (or only in-flight
// entries remain). Callers hold st.mu.
func (st *annotStore) evictLocked() {
	for st.budget > 0 && st.counts.Bytes > st.budget {
		var oldest int64
		var evict func()
		for _, t := range []table{&st.mem, &st.br, &st.timing, &st.cstats, &st.bstats} {
			if use, ev := t.oldest(st); ev != nil && (evict == nil || use < oldest) {
				oldest, evict = use, ev
			}
		}
		if evict == nil {
			return // everything resident is in flight; retry on next publish
		}
		evict()
		st.counts.Evictions++
	}
}

// touchLocked stamps an entry's last use. Callers hold st.mu.
func (st *annotStore) touchLocked(lastUse *int64) {
	st.clock++
	*lastUse = st.clock
}

// retainLocked charges one reference to a plane object, adding its
// bytes on the first reference. Callers hold st.mu.
func (st *annotStore) retainLocked(p plane) {
	r := st.planeRefs[p]
	if r == nil {
		r = &planeRef{bytes: p.SizeBytes()}
		st.planeRefs[p] = r
		st.counts.Bytes += r.bytes
	}
	r.refs++
}

// releaseLocked drops one reference to a plane object, uncharging its
// bytes when the last reference goes. Callers hold st.mu.
func (st *annotStore) releaseLocked(p plane) {
	if r := st.planeRefs[p]; r != nil {
		if r.refs--; r.refs <= 0 {
			st.counts.Bytes -= r.bytes
			delete(st.planeRefs, p)
		}
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
		return pw.ensureAnnotated(ctx, cfgs, workers)
	})
	return err
}

// AnnotationCtx returns the annotation planes for one design point,
// computing and caching them if needed, under the EnsureAnnotatedCtx
// contract.
func (pw *Profiled) AnnotationCtx(ctx context.Context, cfg uarch.Config) (pipeline.Annotation, error) {
	anns, err := retryCancelled(ctx, func() ([]pipeline.Annotation, error) {
		return pw.ensureAnnotated(ctx, []uarch.Config{cfg}, 1)
	})
	if err != nil {
		return pipeline.Annotation{}, err
	}
	return anns[0], nil
}

// ensureAnnotated is one claim/compute/publish attempt over the
// distinct components of cfgs. It returns the annotation of every
// configuration, indexed like cfgs, from the entries this call
// published or waited on — so the planes stay valid even when the
// byte budget evicts those entries at once. Every component this call
// computes fresh also publishes its raw machine statistics into the
// statistics memo unless a request already holds them — the fused
// statistics behind ExploreInputsCtx; cache-hit and disk-loaded
// components publish nothing.
func (pw *Profiled) ensureAnnotated(ctx context.Context, cfgs []uarch.Config, workers int) ([]pipeline.Annotation, error) {
	st := &pw.annot
	st.lock()
	var (
		mineH []cache.HierarchyConfig
		mineP []uarch.PredictorKind
		memE  = make(map[cache.HierarchyConfig]*memoEntry[*MemPlane])
		brE   = make(map[uarch.PredictorKind]*memoEntry[*trace.BitPlane])
	)
	for _, cfg := range cfgs {
		e, mine := st.mem.claim(st, cfg.Hier)
		if mine {
			mineH = append(mineH, cfg.Hier)
		}
		memE[cfg.Hier] = e
		be, mine := st.br.claim(st, cfg.Predictor)
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
			for i, r := range pw.store.LoadMemPlanes(pw.storeKey, mineH) {
				if h := mineH[i]; r.Err == nil {
					memRes[h] = &MemPlane{Classes: r.Plane, Stats: r.Stats}
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
		rawH := make(map[cache.HierarchyConfig]cache.Stats)
		rawP := make(map[uarch.PredictorKind]branch.Stats)
		for i, group := range groups {
			if frontErr[i] == nil && frontRes[i] == nil {
				frontErr[i] = cutErr
			}
			for _, h := range group {
				if frontErr[i] != nil {
					memErrs[h] = frontErr[i]
					continue
				}
				rawH[h] = frontRaw[i][h]
				memRes[h] = frontRes[i][h]
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
			rawP[pk] = brSt[i]
			brResM[pk] = brRes[i]
		}

		// Canonicalize outside the lock (plane comparison reads the
		// chunks two planes do not share) and write through, then
		// publish, charge and budget-evict under the lock. Disk-loaded
		// planes canonicalize too: two hierarchies whose stored planes
		// coincide still collapse to one object, so the byte
		// accounting and timing memoization behave exactly as for
		// computed planes. Each distinct object joins the seeds once.
		for _, h := range mineH {
			if mp := memRes[h]; mp != nil {
				if mp.Classes = canonicalize(memSeeds, mp.Classes); !slices.Contains(memSeeds, mp.Classes) {
					memSeeds = append(memSeeds, mp.Classes)
				}
			}
		}
		for _, pk := range mineP {
			if bp := brResM[pk]; bp != nil {
				if brResM[pk] = canonicalize(brSeeds, bp); !slices.Contains(brSeeds, brResM[pk]) {
					brSeeds = append(brSeeds, brResM[pk])
				}
			}
		}
		if pw.store != nil {
			pw.writeThrough(workers, computeH, memRes, computeP, brResM)
		}

		var firstErr error
		st.mu.Lock()
		st.counts.CacheAnnotations += int64(len(rawH))
		st.counts.BranchAnnotations += int64(len(rawP))
		for _, h := range mineH {
			firstErr = cmp.Or(firstErr, st.mem.resolve(st, h, memE[h], memRes[h], memErrs[h]))
			if cs, ok := rawH[h]; ok {
				st.cstats.offer(st, h, cs)
			}
		}
		for _, pk := range mineP {
			firstErr = cmp.Or(firstErr, st.br.resolve(st, pk, brE[pk], brResM[pk], brErrs[pk]))
			if bs, ok := rawP[pk]; ok {
				st.bstats.offer(st, pk, bs)
			}
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
		mp, err := memE[cfg.Hier].await(ctx)
		if err != nil {
			return nil, err
		}
		bp, err := brE[cfg.Predictor].await(ctx)
		if err != nil {
			return nil, err
		}
		anns[i] = pipeline.Annotation{Mem: mp.Classes, MemStats: mp.Stats, Br: bp}
	}
	return anns, nil
}

// writeThrough saves the freshly computed planes of hs and pks, which
// the caller has canonicalized, to the artifact store. The first
// hierarchy of each distinct plane object saves it as a mem-plane
// body; every later one saves an alias record naming that holder,
// after the body is written (an alias whose body failed to save is
// skipped). The saves of each phase are independent files, so they
// fan out over workers; each file's bytes do not depend on the order.
// Save errors are ignored: the disk tier can only skip work.
func (pw *Profiled) writeThrough(workers int, hs []cache.HierarchyConfig, mem map[cache.HierarchyConfig]*MemPlane, pks []uarch.PredictorKind, br map[uarch.PredictorKind]*trace.BitPlane) {
	type holder struct {
		h    cache.HierarchyConfig
		body int // index into bodies
	}
	holders := make(map[*trace.BytePlane]holder)
	var bodies, aliases []func() error
	var holderOf []int // per alias: the index of its holder's body
	for _, h := range hs {
		mp := mem[h]
		if mp == nil {
			continue
		}
		if hd, ok := holders[mp.Classes]; ok {
			aliases = append(aliases, func() error {
				return pw.store.SaveMemPlaneAlias(pw.storeKey, h, hd.h, mp.Classes.Len(), mp.Stats)
			})
			holderOf = append(holderOf, hd.body)
			continue
		}
		holders[mp.Classes] = holder{h, len(bodies)}
		bodies = append(bodies, func() error { return pw.store.SaveMemPlane(pw.storeKey, h, mp.Classes, mp.Stats) })
	}
	for _, pk := range pks {
		if bp := br[pk]; bp != nil {
			bodies = append(bodies, func() error { return pw.store.SaveBranchPlane(pw.storeKey, uarch.PredictorName(pk), bp) })
		}
	}
	bodyErr := make([]error, len(bodies))
	_ = par.ForEachCtx(context.Background(), workers, len(bodies), func(i int) error {
		bodyErr[i] = bodies[i]()
		return nil
	})
	_ = par.ForEachCtx(context.Background(), workers, len(aliases), func(i int) error {
		if bodyErr[holderOf[i]] == nil {
			_ = aliases[i]()
		}
		return nil
	})
}

// SetAnnotBudget bounds the resident bytes of the annotation-plane and
// memoized-timing cache: whenever charged bytes exceed the budget,
// completed entries are evicted least-recently-used-first (shared
// canonicalized planes are uncharged only when their last referencing
// entry goes). bytes ≤ 0 removes the bound. Evicted components are
// recomputed transparently on next use.
func (pw *Profiled) SetAnnotBudget(bytes int64) {
	st := &pw.annot
	st.lock()
	st.budget = bytes
	st.evictLocked()
	st.mu.Unlock()
}

// Counters snapshots this workload's work counters and the bytes its
// memo holds resident (Pool.Stats sums the bytes across workloads).
func (pw *Profiled) Counters() Counters {
	st := &pw.annot
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.counts
}
