package par

import "context"

// Budget is a pot of worker tokens shared by concurrent requests. A
// long-running fan-out (a validated design-space exploration) acquires
// a bounded number of tokens and passes that count as its ForEachCtx
// worker argument, so it can never monopolize the process: concurrent
// small requests still find tokens, and every requester is guaranteed
// at least one token once the pot drains back.
type Budget struct {
	tokens chan struct{}
}

// NewBudget creates a budget of n worker tokens; n ≤ 0 means
// Workers(0) (the process default pool size).
func NewBudget(n int) *Budget {
	if n <= 0 {
		n = Workers(0)
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Acquire blocks until at least one token is available (or ctx is
// done), then opportunistically takes up to max-1 more without
// blocking, returning the number taken (≥ 1 on success). The caller
// must Release exactly that count.
func (b *Budget) Acquire(ctx context.Context, max int) (int, error) {
	if max < 1 {
		max = 1
	}
	select {
	case <-b.tokens:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	n := 1
	for n < max {
		select {
		case <-b.tokens:
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// TryAcquire takes up to max tokens without blocking, returning the
// number taken and whether at least one was available. The caller must
// Release exactly the returned count.
func (b *Budget) TryAcquire(max int) (int, bool) {
	if max < 1 {
		max = 1
	}
	select {
	case <-b.tokens:
	default:
		return 0, false
	}
	n := 1
	for n < max {
		select {
		case <-b.tokens:
			n++
		default:
			return n, true
		}
	}
	return n, true
}

// Release returns n tokens to the pot.
func (b *Budget) Release(n int) {
	for i := 0; i < n; i++ {
		select {
		case b.tokens <- struct{}{}:
		default:
			panic("par: Budget.Release of tokens never acquired")
		}
	}
}

// Cap returns the total number of tokens in the budget.
func (b *Budget) Cap() int { return cap(b.tokens) }

// InUse returns the number of tokens currently acquired.
func (b *Budget) InUse() int { return cap(b.tokens) - len(b.tokens) }
