package harness

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// chunkCut is a context that cancels itself the (k+1)-th time its Err
// is consulted. trace.EachChunk consults Err before every chunk, so a
// walk that is the context's only Err caller is cut right after its
// k-th chunk.
type chunkCut struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
	calls  atomic.Int64
}

func cutAfterChunks(k int) *chunkCut {
	ctx, cancel := context.WithCancel(context.Background())
	c := &chunkCut{Context: ctx, cancel: cancel}
	c.left.Store(int64(k))
	return c
}

func (c *chunkCut) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelCorpus returns a workload spanning many chunks and the
// configurations the cancellation tests cover: the 16 Table 2
// statistics combinations (one front, two predictors) plus a point
// with a larger L1-D, a second front.
func cancelCorpus(t *testing.T) (*Profiled, []uarch.Config) {
	t.Helper()
	spec, err := workloads.ByName("dijkstra")
	if err != nil {
		t.Fatal(err)
	}
	pw := MustProfileProgram(spec.Build())
	if pw.Trace.NumChunks() < 4 {
		t.Fatalf("dijkstra has %d chunks; the tests need at least 4", pw.Trace.NumChunks())
	}
	cfgs := table2Combos()
	wide := uarch.Default()
	wide.Hier.DL1.SizeBytes *= 2
	return pw, append(cfgs, wide)
}

// TestAnnotateFrontCancelAfterChunk cuts the cache-annotation walk
// after its k-th chunk, directly and through the plane cache: the call
// returns ctx.Err(), publishes no plane and leaves no claim, and a
// retry annotates bit-identically to an uncut annotation.
func TestAnnotateFrontCancelAfterChunk(t *testing.T) {
	pw, cfgs := cancelCorpus(t)
	hiers := make([]cache.HierarchyConfig, 0, len(cfgs))
	for _, cfg := range cfgs {
		hiers = append(hiers, cfg.Hier)
	}
	groups := groupByFront(hiers)
	ref := pw.Fresh()
	if err := ref.EnsureAnnotatedCtx(context.Background(), cfgs, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, pw.Trace.NumChunks() / 2, pw.Trace.NumChunks() - 1} {
		ctx := cutAfterChunks(k)
		out, raw, err := annotateFront(ctx, pw.Trace, groups[0])
		if !errors.Is(err, context.Canceled) || out != nil || raw != nil {
			t.Fatalf("k=%d: annotateFront returned %d planes, %d stats, err %v", k, len(out), len(raw), err)
		}
		if got := ctx.calls.Load(); got != int64(k+1) {
			t.Fatalf("k=%d: walk consulted the context %d times, want %d", k, got, k+1)
		}

		// Through the plane cache with a write-through store, one
		// worker: the first front's walk is the first task and the
		// context's only Err caller until the cut, which stops every
		// other task before it starts.
		fresh := pw.Fresh()
		store, err := artifact.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fresh.AttachArtifacts(store, "cut")
		if _, err := fresh.ensureAnnotated(cutAfterChunks(k), cfgs, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: ensureAnnotated returned %v, want context.Canceled", k, err)
		}
		fresh.annot.mu.Lock()
		claims := len(fresh.annot.mem.entries) + len(fresh.annot.br.entries)
		fresh.annot.mu.Unlock()
		if claims != 0 || fresh.Counters().Bytes != 0 {
			t.Fatalf("k=%d: cut annotation left %d entries, %d bytes", k, claims, fresh.Counters().Bytes)
		}
		if saved, err := store.List(); err != nil || len(saved) != 0 {
			t.Fatalf("k=%d: cut annotation wrote %d artifacts (%v)", k, len(saved), err)
		}
		if err := fresh.EnsureAnnotatedCtx(context.Background(), cfgs, 1); err != nil {
			t.Fatalf("k=%d: retry: %v", k, err)
		}
		for _, cfg := range cfgs {
			got, err := fresh.AnnotationCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.AnnotationCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Mem.Equal(want.Mem) || got.MemStats != want.MemStats || !got.Br.Equal(want.Br) {
				t.Fatalf("k=%d, %s: retried annotation differs from an uncut one", k, cfg)
			}
		}
	}
}

// TestInputsSetAddCancelAfterChunk cuts InputsSet.Add's one walk after
// its k-th chunk: Add returns ctx.Err() and adds no statistics, no
// replay and no memo entry, and a retry on the same set collects
// exactly what an uncut set does.
func TestInputsSetAddCancelAfterChunk(t *testing.T) {
	pw, cfgs := cancelCorpus(t)
	ref, err := pw.Fresh().MultiInputsCtx(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, pw.Trace.NumChunks() / 2, pw.Trace.NumChunks() - 1} {
		fresh := pw.Fresh()
		s := fresh.NewInputsSet()
		ctx := cutAfterChunks(k)
		if err := s.Add(ctx, cfgs); !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: Add returned %v, want context.Canceled", k, err)
		}
		if got := ctx.calls.Load(); got != int64(k+1) {
			t.Fatalf("k=%d: walk consulted the context %d times, want %d", k, got, k+1)
		}
		if len(s.mem)+len(s.br) != 0 || s.Replays() != 0 {
			t.Fatalf("k=%d: cut Add left %d hierarchies, %d predictors, %d replays", k, len(s.mem), len(s.br), s.Replays())
		}
		if n := statsEntries(fresh); n != 0 || fresh.Counters() != (Counters{}) {
			t.Fatalf("k=%d: cut Add left %d memo entries, counters %+v", k, n, fresh.Counters())
		}
		if _, err := s.Inputs(cfgs[0]); err == nil {
			t.Fatalf("k=%d: cut Add published inputs", k)
		}
		if err := s.Add(context.Background(), cfgs); err != nil {
			t.Fatalf("k=%d: retry: %v", k, err)
		}
		for _, cfg := range cfgs {
			got, err := s.Inputs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Inputs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Mem != want.Mem || got.Branch != want.Branch {
				t.Fatalf("k=%d, %s: retried inputs differ from an uncut set", k, cfg)
			}
		}
	}
}

// statsEntries counts pw's statistics memo entries, resolved or in
// flight.
func statsEntries(pw *Profiled) int {
	pw.annot.lock()
	defer pw.annot.mu.Unlock()
	return len(pw.annot.cstats.entries) + len(pw.annot.bstats.entries)
}
