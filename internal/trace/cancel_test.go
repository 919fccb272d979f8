package trace

import (
	"context"
	"errors"
	"testing"
)

// TestReplayCtx pins the chunk-boundary cancellation contract: a live
// context observes every instruction exactly like Replay, and a
// context cancelled mid-replay stops the traversal at the next chunk
// boundary instead of finishing the trace.
func TestReplayCtx(t *testing.T) {
	b := NewBuilder()
	var d DynInst
	const n = 3*ChunkLen + 17
	for i := 0; i < n; i++ {
		d.PC = int64(i % 100)
		b.Append(&d)
	}
	tr := b.Trace()

	var count int64
	if err := tr.ReplayCtx(context.Background(), ConsumerFunc(func(*DynInst) { count++ })); err != nil {
		t.Fatalf("ReplayCtx with live context: %v", err)
	}
	if count != n {
		t.Fatalf("ReplayCtx observed %d instructions, want %d", count, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	err := tr.ReplayCtx(ctx, ConsumerFunc(func(*DynInst) {
		seen++
		if seen == ChunkLen/2 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReplayCtx returned %v, want context.Canceled", err)
	}
	// Cancellation lands between chunks: the current chunk finishes,
	// nothing after it starts.
	if seen != ChunkLen {
		t.Fatalf("cancelled ReplayCtx observed %d instructions, want exactly one chunk (%d)", seen, ChunkLen)
	}
}
