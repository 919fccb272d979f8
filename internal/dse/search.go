package dse

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/uarch"
)

// Search is the Pareto-aware heuristic exploration: a deterministic
// seeded genetic search over a typed parameter domain's index space,
// for spaces too large to sweep exhaustively. Each generation breeds
// candidates from the current Pareto front (uniform crossover plus
// point mutation), deduplicates against everything already evaluated,
// tops the batch up with random unevaluated points, and evaluates the
// batch with the mechanistic model — the machine statistics arrive
// through one harness.InputsSet, so a generation costs at most one
// trace replay and only for components not yet seen.
//
// Determinism: with a fixed seed, trace and options, the evaluation
// sequence and the returned front are exactly reproducible — the
// search never iterates a map where order matters and draws every
// random choice from its own seeded source. With Budget at least the
// domain cardinality the search degenerates to (out-of-order)
// exhaustive enumeration, so its front is bit-identical to the
// exhaustive sweep's: same points, same floats.

// Default search parameters, used when the corresponding option is
// zero or negative.
const (
	DefaultSearchBudget     = 512
	DefaultSearchPopulation = 32
)

// SearchOptions tunes Search. The zero value is usable.
type SearchOptions struct {
	// Budget caps the number of model evaluations (design points).
	// ≤0 means DefaultSearchBudget; it is always clamped to the
	// domain cardinality.
	Budget int
	// Seed seeds the random source; equal seeds reproduce the search
	// exactly.
	Seed int64
	// PopSize is the per-generation batch size (≤0 means
	// DefaultSearchPopulation).
	PopSize int
	// Validate additionally runs the detailed simulator for every
	// evaluated point (the expensive path), filling the Sim fields so
	// Pareto dominance uses simulated numbers.
	Validate bool
	// Workers bounds the parallel detailed replays when validating
	// (≤0 means the process default).
	Workers int
	// OnBatch, when set, streams each generation's evaluated points as
	// soon as they exist (gen counts from 0). Returning an error
	// aborts the search with that error. Points are handed over in
	// evaluation order and must not be retained past the call if the
	// callback mutates them.
	OnBatch func(gen int, pts []Point) error
}

// SearchResult is the outcome of a Search run.
type SearchResult struct {
	// Evaluated counts distinct design points evaluated with the
	// model — the economy counter the exhaustive-recovery test pins
	// against the domain cardinality.
	Evaluated int
	// Generations counts evaluated batches.
	Generations int
	// Replays counts trace traversals spent collecting statistics
	// (harness.InputsSet economy; annotation/timing replays of
	// Validate are not included).
	Replays int
	// Front is the Pareto front over every evaluated point, ordered by
	// ascending domain index — the same order an exhaustive sweep
	// enumerates, so fronts compare positionally.
	Front []Point
}

// Search runs the heuristic exploration of domain d from base on pw's
// trace. It aborts with ctx's error at a batch boundary once ctx ends.
func Search(ctx context.Context, pw *harness.Profiled, d *uarch.Domain, base uarch.Config, pm power.Model, opts SearchOptions) (SearchResult, error) {
	card := d.Cardinality()
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultSearchBudget
	}
	if int64(budget) > card {
		budget = int(card)
	}
	pop := opts.PopSize
	if pop <= 0 {
		pop = DefaultSearchPopulation
	}
	if pop > budget {
		pop = budget
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	sc := pw.NewInputsSet()
	var (
		all     []Point       // every evaluated point, evaluation order
		allPts  []uarch.Point // axis-index vector per evaluated point
		allIdx  []int64       // domain index per evaluated point
		seen    = make(map[int64]bool)
		scan    int64 // deterministic fallback cursor over the grid
		parents []uarch.Point
		res     SearchResult
	)
	for len(all) < budget {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		want := pop
		if rem := budget - len(all); want > rem {
			want = rem
		}
		batch, idxs := nextBatch(d, rng, want, seen, &scan, parents)
		if len(batch) == 0 {
			break // every valid point evaluated
		}
		cfgs := make([]uarch.Config, len(batch))
		for i, pt := range batch {
			cfg, err := d.Apply(base, pt)
			if err != nil {
				return res, fmt.Errorf("dse: search candidate %v: %w", []int(pt), err)
			}
			cfgs[i] = cfg
		}
		pts, err := evalSearchBatch(ctx, sc, pw, cfgs, pm, opts)
		if err != nil {
			return res, err
		}
		gen := res.Generations
		res.Generations++
		for i := range pts {
			seen[idxs[i]] = true
			all = append(all, pts[i])
			allPts = append(allPts, batch[i])
			allIdx = append(allIdx, idxs[i])
		}
		res.Evaluated = len(all)
		res.Replays = sc.Replays()
		if opts.OnBatch != nil {
			if err := opts.OnBatch(gen, pts); err != nil {
				return res, err
			}
		}
		front := ParetoFront(all)
		parents = parents[:0]
		for _, i := range front {
			parents = append(parents, allPts[i])
		}
	}

	front := ParetoFront(all)
	sort.Slice(front, func(a, b int) bool { return allIdx[front[a]] < allIdx[front[b]] })
	res.Front = make([]Point, len(front))
	for i, j := range front {
		res.Front[i] = all[j]
	}
	res.Evaluated = len(all)
	res.Replays = sc.Replays()
	return res, nil
}

// evalSearchBatch evaluates one generation: statistics through the
// incremental set (at most one replay), closed-form model per point,
// plus the detailed simulator when validating.
func evalSearchBatch(ctx context.Context, sc *harness.InputsSet, pw *harness.Profiled, cfgs []uarch.Config, pm power.Model, opts SearchOptions) ([]Point, error) {
	if err := sc.Add(ctx, cfgs); err != nil {
		return nil, err
	}
	pts, err := explore(sc, cfgs, pm)
	if err != nil {
		return nil, err
	}
	if opts.Validate {
		sims, err := pw.SimulateDetailedBatchCtx(ctx, cfgs, opts.Workers)
		if err != nil {
			return nil, err
		}
		for i := range pts {
			if err := fillSim(&pts[i], sims[i], sc, pm); err != nil {
				return nil, err
			}
		}
	}
	return pts, nil
}

// nextBatch assembles up to want unevaluated valid points: offspring
// bred from the Pareto-front parents first, then random unevaluated
// points, then — guaranteeing progress whenever unevaluated points
// remain — a deterministic scan of the remaining grid.
func nextBatch(d *uarch.Domain, rng *rand.Rand, want int, seen map[int64]bool, scan *int64, parents []uarch.Point) ([]uarch.Point, []int64) {
	batch := make([]uarch.Point, 0, want)
	idxs := make([]int64, 0, want)
	inBatch := make(map[int64]bool)
	add := func(pt uarch.Point) {
		idx, err := d.PointIndex(pt)
		if err != nil || seen[idx] || inBatch[idx] {
			return
		}
		inBatch[idx] = true
		batch = append(batch, pt)
		idxs = append(idxs, idx)
	}
	if len(parents) > 0 {
		for tries := 0; tries < want*8 && len(batch) < want; tries++ {
			a := parents[rng.Intn(len(parents))]
			b := parents[rng.Intn(len(parents))]
			add(breed(d, rng, a, b))
		}
	}
	grid := d.GridSize()
	for tries := 0; tries < want*16 && len(batch) < want; tries++ {
		pt, err := d.PointAt(rng.Int63n(grid))
		if err != nil {
			continue // constraint-violating grid point
		}
		add(pt)
	}
	for *scan < grid && len(batch) < want {
		pt, err := d.PointAt(*scan)
		*scan++
		if err != nil {
			continue
		}
		add(pt)
	}
	return batch, idxs
}

// breed produces one offspring: uniform crossover of two parents, then
// with even odds a point mutation on one random axis.
func breed(d *uarch.Domain, rng *rand.Rand, a, b uarch.Point) uarch.Point {
	axes := d.Axes()
	child := make(uarch.Point, len(axes))
	for i := range child {
		if rng.Intn(2) == 0 {
			child[i] = a[i]
		} else {
			child[i] = b[i]
		}
	}
	if rng.Intn(2) == 0 {
		i := rng.Intn(len(axes))
		child[i] = rng.Intn(axes[i].Card())
	}
	return child
}
