package par

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestQueueFastPath pins that a free token bypasses queue accounting.
func TestQueueFastPath(t *testing.T) {
	q := NewQueue(NewBudget(4), 1, time.Millisecond)
	n, err := q.Acquire(context.Background(), 3)
	if err != nil || n != 3 {
		t.Fatalf("Acquire = %d, %v; want 3 tokens", n, err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("fast-path acquire left queue depth %d", d)
	}
	q.Budget().Release(n)
}

// TestQueueDepthCap pins early shedding: with the pot drained and the
// queue full, the next request fails immediately with ErrQueueFull.
func TestQueueDepthCap(t *testing.T) {
	b := NewBudget(1)
	q := NewQueue(b, 1, 0)
	held, _ := b.Acquire(context.Background(), 1)

	parked := make(chan error, 1)
	go func() {
		n, err := q.Acquire(context.Background(), 1)
		if err == nil {
			b.Release(n)
		}
		parked <- err
	}()
	// Wait until the first request is parked so the depth cap is
	// observable.
	for q.Depth() == 0 {
		time.Sleep(time.Millisecond)
	}

	if _, err := q.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap acquire returned %v, want ErrQueueFull", err)
	}
	if got := q.ShedFull(); got != 1 {
		t.Fatalf("ShedFull = %d, want 1", got)
	}

	b.Release(held)
	if err := <-parked; err != nil {
		t.Fatalf("parked request failed: %v", err)
	}
}

// TestQueueWaitCap pins the wait-time cap: a parked request is shed
// with ErrQueueWait once maxWait elapses.
func TestQueueWaitCap(t *testing.T) {
	b := NewBudget(1)
	q := NewQueue(b, 0, 5*time.Millisecond)
	held, _ := b.Acquire(context.Background(), 1)
	defer b.Release(held)

	if _, err := q.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueWait) {
		t.Fatalf("waiting acquire returned %v, want ErrQueueWait", err)
	}
	if got := q.ShedWait(); got != 1 {
		t.Fatalf("ShedWait = %d, want 1", got)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("shed request left queue depth %d", d)
	}
}

// TestQueueCancellation pins that a parked request honors its context
// and leaves no queue residue.
func TestQueueCancellation(t *testing.T) {
	b := NewBudget(1)
	q := NewQueue(b, 0, 0)
	held, _ := b.Acquire(context.Background(), 1)
	defer b.Release(held)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, 1)
		done <- err
	}()
	for q.Depth() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("cancelled request left queue depth %d", d)
	}
}

// TestQueueClose pins the shutdown drain: parked requests are rejected
// immediately and later requests never park, while already-acquired
// tokens stay valid.
func TestQueueClose(t *testing.T) {
	b := NewBudget(1)
	q := NewQueue(b, 0, 0)
	held, _ := b.Acquire(context.Background(), 1)

	const parked = 3
	var wg sync.WaitGroup
	errs := make(chan error, parked)
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.Acquire(context.Background(), 1)
			errs <- err
		}()
	}
	for q.Depth() < parked {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrQueueClosed) {
			t.Fatalf("parked request at close returned %v, want ErrQueueClosed", err)
		}
	}
	if _, err := q.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("acquire after close returned %v, want ErrQueueClosed", err)
	}
	q.Close() // idempotent
	b.Release(held)
}

// TestForEachCtxCancellation pins that cancellation stops claiming new
// iterations and surfaces ctx.Err, while a clean run runs them all.
func TestForEachCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran, maxSeen int
	var mu sync.Mutex
	err := ForEachCtx(ctx, 2, 1000, func(i int) error {
		mu.Lock()
		ran++
		if i > maxSeen {
			maxSeen = i
		}
		if ran == 10 {
			cancel()
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ForEachCtx returned %v, want context.Canceled", err)
	}
	if ran >= 1000 {
		t.Fatalf("cancelled ForEachCtx still ran all %d iterations", ran)
	}

	n := 0
	if err := ForEachCtx(context.Background(), 4, 100, func(i int) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	}); err != nil || n != 100 {
		t.Fatalf("clean ForEachCtx = %v after %d iterations, want nil after 100", err, n)
	}
}

// TestForEachCtxFirstErrorWins pins that an iteration error beats the
// cancellation it triggered.
func TestForEachCtxFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 2, 100, func(i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ForEachCtx returned %v, want the iteration error", err)
	}
}

// TestForEachCtxLateCancelCutsNothing pins that a ctx ending inside the
// last iteration, once every index has been claimed, is no
// cancellation: nothing was cut, so every worker count returns nil.
// With several workers all n iterations meet at a barrier and the last
// to arrive cancels, so each worker loops back into a done ctx.
func TestForEachCtxLateCancelCutsNothing(t *testing.T) {
	const n = 4
	for _, workers := range []int{1, n} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			mu      sync.Mutex
			arrived int
			all     = make(chan struct{})
		)
		err := ForEachCtx(ctx, workers, n, func(int) error {
			mu.Lock()
			arrived++
			if arrived == n {
				cancel()
				close(all)
			}
			mu.Unlock()
			if workers > 1 {
				<-all
			}
			return nil
		})
		cancel()
		if err != nil || arrived != n {
			t.Errorf("workers=%d: ForEachCtx = %v after %d of %d iterations, want nil after all", workers, err, arrived, n)
		}
	}
}
