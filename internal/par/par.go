// Package par is the shared worker-pool helper behind every parallel
// loop in the repository: the figure-level experiment loops, the
// design-space validation and the CLI binaries all fan work out
// through ForEachCtx, and the -workers flags of cmd/experiments and
// cmd/inorder-model plumb into SetDefault.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides GOMAXPROCS as the pool size used when a
// caller passes ≤ 0; zero means "use GOMAXPROCS".
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a
// caller requests ≤ 0 workers. n ≤ 0 restores GOMAXPROCS.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a requested worker count: values > 0 pass through;
// otherwise the process default (SetDefault, falling back to
// GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEachCtx runs f(i) for every i in [0, n) across Workers(workers)
// goroutines and returns the first error encountered. All iterations
// run regardless of earlier failures (results are index-addressed by
// callers, so partial slices never appear); f must be safe for
// concurrent invocation on distinct indices.
//
// Once ctx is done, no new iteration starts (iterations already
// running finish) and the loop returns ctx.Err() if it cut any
// iteration — so a cancelled caller must treat its index-addressed
// results as partial. A ctx that ends after the last iteration has
// started cuts nothing, so the loop then reports no cancellation. An
// earlier iteration error still wins over the cancellation.
func ForEachCtx(ctx context.Context, workers, n int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		var first error
		cut := false
		for i := 0; i < n; i++ {
			select {
			case <-done:
				cut = true
			default:
			}
			if cut {
				break
			}
			if err := f(i); err != nil && first == nil {
				first = err
			}
		}
		if first == nil && cut {
			first = ctx.Err()
		}
		return first
	}
	var (
		next  atomic.Int64
		cut   atomic.Bool
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				// Claim first: only an unclaimed index can be cut.
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case <-done:
					cut.Store(true)
					return
				default:
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first == nil && cut.Load() {
		first = ctx.Err()
	}
	return first
}
