package harness

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/uarch"
)

// memoHitAllocCeiling bounds the allocations of one memo-hit
// MultiInputsCtx plus core.Predict. A hit builds the set's two maps,
// the request's component lists and the stack; a statistics walk or a
// new engine allocates hundreds more, so a hit that walks fails.
const memoHitAllocCeiling = 16

// TestStatsMemoSingleflight asks one workload for one new design point
// from 16 goroutines at once: the memo walks the trace once for all of
// them, every caller gets the same inputs, and asking again walks
// nothing.
func TestStatsMemoSingleflight(t *testing.T) {
	pw := MustProfileProgram(mustSpec(t, "crc32").Build())
	cfg := uarch.Default().WithL2(256, 16).WithPredictor(uarch.PredHybrid3_5KB)
	want, err := pw.Fresh().MultiInputsCtx(context.Background(), []uarch.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	wantIn, err := want.Inputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ask := func() {
		var wg sync.WaitGroup
		errs := make([]error, 16)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				set, err := pw.MultiInputsCtx(context.Background(), []uarch.Config{cfg})
				if err == nil {
					var in core.Inputs
					if in, err = set.Inputs(cfg); err == nil && (in.Mem != wantIn.Mem || in.Branch != wantIn.Branch) {
						err = errors.New("inputs differ from a fresh workload's")
					}
				}
				errs[g] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}
	ask()
	if got := pw.Counters().StatsTraversals; got != 1 {
		t.Fatalf("16 concurrent requests walked the trace %d times, want 1", got)
	}
	ask()
	if got := pw.Counters().StatsTraversals; got != 1 {
		t.Fatalf("repeated requests walked the trace again: %d walks, want 1", got)
	}
}

// waitSignal is a context whose Done closes waiting the first time it
// is called: a memo waiter calls it once it blocks on an in-flight
// entry.
type waitSignal struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitSignal) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// holdCut is a context that, the second time its Err is consulted
// (after the walk's first chunk), reports inWalk, holds until release
// closes and then cancels itself.
type holdCut struct {
	context.Context
	cancel          context.CancelFunc
	calls           int
	inWalk, release chan struct{}
}

func (c *holdCut) Err() error {
	if c.calls++; c.calls == 2 {
		close(c.inWalk)
		<-c.release
		c.cancel()
	}
	return c.Context.Err()
}

// TestStatsMemoCancelledClaimant cancels the request whose walk holds
// a component's claim while a second request waits on it: the claimant
// gets its cancellation and leaves nothing in its set, and the waiter,
// whose own context is live, claims again, walks and gets exactly the
// inputs of an uncut collection.
func TestStatsMemoCancelledClaimant(t *testing.T) {
	pw, cfgs := cancelCorpus(t)
	want, err := pw.Fresh().MultiInputsCtx(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	claimCtx := &holdCut{Context: ctx, cancel: cancel, inWalk: make(chan struct{}), release: make(chan struct{})}
	claimant := pw.NewInputsSet()
	claimErr := make(chan error, 1)
	go func() { claimErr <- claimant.Add(claimCtx, cfgs) }()
	<-claimCtx.inWalk

	waitCtx := &waitSignal{Context: context.Background(), waiting: make(chan struct{})}
	type result struct {
		set *InputsSet
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		set, err := pw.MultiInputsCtx(waitCtx, cfgs)
		waiter <- result{set, err}
	}()
	<-waitCtx.waiting
	close(claimCtx.release)

	if err := <-claimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled claimant returned %v, want context.Canceled", err)
	}
	if len(claimant.mem)+len(claimant.br) != 0 || claimant.Replays() != 0 {
		t.Fatalf("cancelled claimant's set holds %d hierarchies, %d predictors, %d replays",
			len(claimant.mem), len(claimant.br), claimant.Replays())
	}
	got := <-waiter
	if got.err != nil {
		t.Fatalf("waiter with a live context failed: %v", got.err)
	}
	for _, cfg := range cfgs {
		g, err := got.set.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Mem != w.Mem || g.Branch != w.Branch {
			t.Fatalf("%s: the waiter's retried inputs differ from an uncut collection", cfg.Name)
		}
	}
	// Only the waiter's walk completed; the memo holds exactly its
	// components.
	if c := pw.Counters(); c.StatsTraversals != 1 {
		t.Fatalf("%d completed walks, want 1 (the waiter's retry)", c.StatsTraversals)
	}
	if n, want := statsEntries(pw), len(got.set.mem)+len(got.set.br); n != want {
		t.Fatalf("memo holds %d statistics entries, want %d", n, want)
	}
}

// TestStatsMemoHitAllocBudget pins what a memo hit costs: once a design
// point's components are resident, resolving its inputs and predicting
// it allocates a small fixed amount and walks nothing.
func TestStatsMemoHitAllocBudget(t *testing.T) {
	pw := MustProfileProgram(mustSpec(t, "sha").Build())
	cfg := uarch.Default()
	ctx := context.Background()
	if _, err := pw.MultiInputsCtx(ctx, []uarch.Config{cfg}); err != nil {
		t.Fatal(err)
	}
	var failed error
	allocs := testing.AllocsPerRun(100, func() {
		set, err := pw.MultiInputsCtx(ctx, []uarch.Config{cfg})
		if err != nil {
			failed = err
			return
		}
		in, err := set.Inputs(cfg)
		if err != nil {
			failed = err
			return
		}
		if _, err := core.Predict(in, cfg); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs > memoHitAllocCeiling {
		t.Fatalf("a memo-hit prediction allocates %.0f times, ceiling %d", allocs, memoHitAllocCeiling)
	}
	if got := pw.Counters().StatsTraversals; got != 1 {
		t.Fatalf("memo hits walked the trace: %d walks, want 1", got)
	}
}

// TestStatsMemoBudget charges statistics entries under the byte
// budget: a budget of two entries keeps the store within it by
// evicting statistics, the inputs stay exact, and an evicted component
// is walked again on next use.
func TestStatsMemoBudget(t *testing.T) {
	pw := MustProfileProgram(mustSpec(t, "crc32").Build())
	combos := table2Combos()
	ctx := context.Background()
	want, err := pw.Fresh().MultiInputsCtx(ctx, combos)
	if err != nil {
		t.Fatal(err)
	}
	pw.SetAnnotBudget(2 * statsEntryOverheadBytes)
	got, err := pw.MultiInputsCtx(ctx, combos)
	if err != nil {
		t.Fatal(err)
	}
	c := pw.Counters()
	// Eight hierarchies and two predictors, two of them kept.
	if c.Bytes > 2*statsEntryOverheadBytes || c.Evictions != 8 {
		t.Fatalf("budgeted store holds %d bytes after %d evictions, want ≤ %d after 8", c.Bytes, c.Evictions, 2*statsEntryOverheadBytes)
	}
	for _, cfg := range combos {
		g, err := got.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g.Mem != w.Mem || g.Branch != w.Branch {
			t.Fatalf("%s: inputs under a byte budget differ", cfg.Name)
		}
	}
	if _, err := pw.MultiInputsCtx(ctx, combos); err != nil {
		t.Fatal(err)
	}
	if got := pw.Counters().StatsTraversals; got != 2 {
		t.Fatalf("%d walks after evicted components were asked for again, want 2", got)
	}
}
