package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
)

// errStoreDegraded marks operations refused by the tripped breaker.
// The pool treats it like any other disk error — profiling proceeds —
// so a degraded store costs one error per save, never a request.
var errStoreDegraded = errors.New("service: artifact store degraded, skipping disk")

// storeGuard is the artifact store's retry-with-backoff and circuit
// breaker layer. A transient I/O fault is retried in place; a store
// that keeps failing trips the breaker, and for a cooldown window the
// service runs compute-only — loads answer ErrNotFound (profile
// fresh), saves are skipped — instead of paying a dying disk's latency
// on every request. After the cooldown the next operation probes the
// store again and a success closes the breaker.
//
// ErrNotFound and ErrInvalid never count as faults and are never
// retried: they are the store answering truthfully ("nothing here",
// "this file is unusable"), not the disk failing to answer.
type storeGuard struct {
	retries   int           // extra attempts per operation after the first
	backoff   time.Duration // sleep before retry n is backoff << (n-1)
	tripAfter int           // consecutive failed operations that open the breaker
	cooldown  time.Duration // how long an open breaker refuses the store

	mu            sync.Mutex
	consecutive   int
	degradedUntil time.Time

	retried atomic.Int64 // retry attempts performed
	trips   atomic.Int64 // times the breaker opened
}

// newStoreGuard returns a guard with the service's policy: two
// retries from 10ms, tripping after five failed operations in a row
// for 30s.
func newStoreGuard() *storeGuard {
	return &storeGuard{retries: 2, backoff: 10 * time.Millisecond, tripAfter: 5, cooldown: 30 * time.Second}
}

// Degraded reports whether the breaker is currently open.
func (g *storeGuard) Degraded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Now().Before(g.degradedUntil)
}

// Retried returns the number of retry attempts performed.
func (g *storeGuard) Retried() int64 { return g.retried.Load() }

// Trips returns how many times the breaker opened.
func (g *storeGuard) Trips() int64 { return g.trips.Load() }

// truthful reports errors that are answers, not faults.
func truthful(err error) bool {
	return err == nil || errors.Is(err, artifact.ErrNotFound) || errors.Is(err, artifact.ErrInvalid)
}

// run executes op under the retry/breaker policy. It returns
// errStoreDegraded without touching the store while the breaker is
// open.
func (g *storeGuard) run(op func() error) error {
	if g.Degraded() {
		return errStoreDegraded
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if truthful(err) {
			g.mu.Lock()
			g.consecutive = 0
			g.mu.Unlock()
			return err
		}
		if attempt >= g.retries {
			break
		}
		g.retried.Add(1)
		time.Sleep(g.backoff << attempt)
	}
	g.mu.Lock()
	g.consecutive++
	if g.consecutive >= g.tripAfter {
		g.consecutive = 0
		g.degradedUntil = time.Now().Add(g.cooldown)
		g.trips.Add(1)
	}
	g.mu.Unlock()
	return err
}

// layer is the guard's store layer: every operation runs under the
// retry/breaker policy, and a load refused by the open breaker reports
// a miss so the caller profiles fresh.
func (g *storeGuard) layer(op artifact.Op, _ string, do func() error) error {
	err := g.run(do)
	if op == artifact.OpLoad && errors.Is(err, errStoreDegraded) {
		return artifact.ErrNotFound
	}
	return err
}
