package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var hits [100]atomic.Int32
		if err := ForEachCtx(context.Background(), workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachReturnsAnErrorAndFinishes(t *testing.T) {
	bad := errors.New("boom")
	var ran atomic.Int32
	err := ForEachCtx(context.Background(), 4, 50, func(i int) error {
		ran.Add(1)
		if i%10 == 3 {
			return fmt.Errorf("%d: %w", i, bad)
		}
		return nil
	})
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d of 50 iterations", ran.Load())
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersResolution(t *testing.T) {
	defer SetDefault(0)
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	SetDefault(5)
	if got := Workers(0); got != 5 {
		t.Errorf("Workers(0) after SetDefault(5) = %d", got)
	}
	if got := Workers(2); got != 2 {
		t.Errorf("explicit request overridden: %d", got)
	}
	SetDefault(-1)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) after SetDefault(-1) = %d", got)
	}
}
