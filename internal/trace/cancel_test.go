package trace

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// TestEachChunk pins the walk every traversal runs on: a live context
// visits every chunk once, in order; a context ended inside chunk k
// stops the walk before chunk k+1 and reports the cancellation, even
// when k is the last; an ended context visits nothing.
func TestEachChunk(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 3*ChunkLen+5; i++ {
		appendInst(b, Static{PC: int32(i % 50)}, 0)
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
