package trace

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestReplayCtx pins the chunk-boundary cancellation contract: a live
// context observes every instruction in order, and a
// context cancelled mid-replay stops the traversal at the next chunk
// boundary instead of finishing the trace.
func TestReplayCtx(t *testing.T) {
	b := NewBuilder()
	var d DynInst
	const n = 3*ChunkLen + 17
	var want []DynInst
	for i := 0; i < n; i++ {
		d.Seq, d.PC, d.NextPC = int64(i), int64(i%100), int64(i%100+1)
		// Every third instruction is a load, so the replay threads the
		// dense address column's running index across chunks.
		d.IsLoad = i%3 == 0
		d.EffAddr = 0
		if d.IsLoad {
			d.EffAddr = int64(i)
		}
		b.Append(&d)
		want = append(want, d)
	}
	tr := b.Trace()

	var got []DynInst
	if err := tr.ReplayCtx(context.Background(), func(d *DynInst) { got = append(got, *d) }); err != nil {
		t.Fatalf("ReplayCtx with live context: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("ReplayCtx observed %d instructions, not the %d appended", len(got), n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	err := tr.ReplayCtx(ctx, func(*DynInst) {
		seen++
		if seen == ChunkLen/2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReplayCtx returned %v, want context.Canceled", err)
	}
	// Cancellation lands between chunks: the current chunk finishes,
	// nothing after it starts.
	if seen != ChunkLen {
		t.Fatalf("cancelled ReplayCtx observed %d instructions, want exactly one chunk (%d)", seen, ChunkLen)
	}
}

// TestEachChunk pins the walk every traversal runs on: a live context
// visits every chunk once, in order; a context ended inside chunk k
// stops the walk before chunk k+1 and reports the cancellation, even
// when k is the last; an ended context visits nothing.
func TestEachChunk(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3*ChunkLen+5; i++ {
		b.Append(&DynInst{PC: int64(i % 50)})
	}
	tr := b.Trace()
	var bases []int64
	if err := tr.EachChunk(context.Background(), func(ck *Columns) { bases = append(bases, ck.Base) }); err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, ChunkLen, 2 * ChunkLen, 3 * ChunkLen}; !slices.Equal(bases, want) {
		t.Fatalf("visited chunks at %v, want %v", bases, want)
	}

	for k := 1; k <= len(bases); k++ {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := tr.EachChunk(ctx, func(*Columns) {
			if seen++; seen == k {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) || seen != k {
			t.Fatalf("cancelled in chunk %d: visited %d chunks, err %v", k, seen, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.EachChunk(ctx, func(*Columns) { t.Fatal("visited a chunk under an ended context") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ended context: err %v", err)
	}
}
