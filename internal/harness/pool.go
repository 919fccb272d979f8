package harness

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/artifact"
	"repro/internal/program"
)

// PoolOptions bounds a workload Pool.
type PoolOptions struct {
	// MaxWorkloads is the maximum number of resident Profiled
	// workloads; admitting one more evicts the least recently used
	// completed entry. ≤ 0 means unbounded.
	MaxWorkloads int
	// MaxPlaneBytes is the annotation-plane/timing-memo byte budget.
	// With MaxWorkloads > 0 each admitted workload receives an equal
	// slice (see Profiled.SetAnnotBudget), so the resident total stays
	// under MaxPlaneBytes; with MaxWorkloads ≤ 0 the budget applies
	// per workload (an unbounded workload count has no fixed slice).
	// ≤ 0 means unbounded.
	MaxPlaneBytes int64
	// Store is the persistent artifact tier: admissions check it
	// before profiling and write freshly profiled workloads through to
	// it, and admitted workloads rehydrate their annotation planes
	// from it. nil disables the tier. I/O policy (resilience guard,
	// peer fetch, fault injector) rides on the store's layers; see
	// artifact.Layer.
	Store *artifact.Store
	// MinDynInsts is the dynamic-instruction floor the pool's profile
	// funcs honor; it is part of the artifact identity, so differently
	// scaled traces never collide on disk. ≤ 0 means one run.
	MinDynInsts int64
}

// PoolStats is a snapshot of a Pool's counters. The json tags shape
// the service's /metrics output.
type PoolStats struct {
	Hits            int64 `json:"hits"`             // lookups answered by a resident (or in-flight) entry
	Misses          int64 `json:"misses"`           // lookups that had to admit a new entry
	Evictions       int64 `json:"evictions"`        // workloads evicted by the MaxWorkloads bound
	Profiles        int64 `json:"profiles"`         // profiling runs actually executed (disk hits skip one)
	DiskHits        int64 `json:"disk_hits"`        // admissions served by the artifact store
	DiskWrites      int64 `json:"disk_writes"`      // freshly profiled workloads written through to disk
	DiskErrors      int64 `json:"disk_errors"`      // unusable artifacts or failed writes (profiling proceeded)
	Resident        int   `json:"resident"`         // completed workloads currently resident
	InFlight        int   `json:"in_flight"`        // admissions currently profiling
	PlaneBytes      int64 `json:"plane_bytes"`      // annotation/timing/statistics bytes resident across all workloads
	StatsTraversals int64 `json:"stats_traversals"` // statistics walks run by the resident workloads (Counters.StatsTraversals)
}

// Pool is a bounded, concurrent cache of Profiled workloads — the
// resource-management layer behind a long-running prediction service.
// Admission is singleflight (concurrent lookups for the same name profile
// it once, everyone waits on that run), residency is LRU-bounded by
// MaxWorkloads, and each resident workload's annotation store is given
// an equal slice of MaxPlaneBytes so total plane/timing memory stays
// under the budget no matter how many design points are served.
//
// With a Store configured the pool is write-through over a persistent
// disk tier: an admission first tries to rehydrate the workload from
// its content-addressed artifact (bit-identical to profiling fresh),
// and a fresh profiling run is saved back so every later process
// starts warm. An unusable artifact — truncated, corrupted, wrong
// format version — is counted and profiling proceeds as if it were
// absent: the store can only skip work, never serve bad data.
type Pool struct {
	mu      sync.Mutex
	opt     PoolOptions
	entries map[string]*poolEntry
	clock   int64

	hits       int64
	misses     int64
	evictions  int64
	profiles   int64
	diskHits   int64
	diskWrites int64
	diskErrors int64
}

type poolEntry struct {
	done    chan struct{}
	pw      *Profiled
	err     error
	lastUse int64

	// Cancellable singleflight: refs counts the requests currently
	// waiting on this admission (the creator holds one too), and cancel
	// aborts the admission's work context. The admission itself runs in
	// a detached goroutine under context.Background()-derived wctx — a
	// leader whose own request dies does not take its followers' work
	// with it; only when the last waiter leaves (refs drops to 0 before
	// done closes) is the in-flight profiling cancelled.
	refs   int
	cancel context.CancelFunc
}

// NewPool creates a Pool with the given bounds.
func NewPool(opt PoolOptions) *Pool {
	return &Pool{opt: opt, entries: make(map[string]*poolEntry)}
}

// perWorkloadBudget is the annotation-byte slice each resident
// workload receives so the resident total stays under MaxPlaneBytes.
func (p *Pool) perWorkloadBudget() int64 {
	if p.opt.MaxPlaneBytes <= 0 {
		return 0
	}
	if p.opt.MaxWorkloads <= 0 {
		return p.opt.MaxPlaneBytes
	}
	b := p.opt.MaxPlaneBytes / int64(p.opt.MaxWorkloads)
	if b < 1 {
		b = 1
	}
	return b
}

// admitResult is one admission's outcome plus the counter deltas it
// earned.
type admitResult struct {
	pw       *Profiled
	err      error
	fromDisk bool // served by the artifact store
	wrote    bool // freshly profiled workload written through
	badDisk  bool // unusable artifact or failed write (profiling proceeded)
}

// GetCtx returns the profiled workload named name, admitting it via
// profile if absent. Concurrent calls for an absent name share one
// profiling run. A failed admission is not cached; the next call
// retries.
//
// GetCtx never touches the disk tier: the artifact identity includes
// the program's content fingerprint, which only the builder-aware
// GetBuiltCtx can compute. It is for callers that hand the pool an
// opaque profile func.
//
// The profile func receives the admission's work context — NOT ctx:
// the admission is shared by every concurrent request for name and
// outlives any one of them. It is cancelled only when the last
// interested request abandons the wait (and on such a cancelled
// admission, requests that arrived late simply re-admit). A caller whose ctx ends while waiting detaches
// immediately with ctx.Err(); the shared run continues for the others.
func (p *Pool) GetCtx(ctx context.Context, name string, profile func(ctx context.Context) (*Profiled, error)) (*Profiled, error) {
	return p.admit(ctx, name, func(wctx context.Context) (r admitResult) {
		r.pw, r.err = profile(wctx)
		return r
	})
}

// GetBuiltCtx returns the profiled workload named name, admitting it
// through the write-through disk tier: build derives the program (and
// with it the content-addressed artifact identity), a valid stored
// artifact rehydrates the workload bit-identically without executing
// it, and a miss runs profile on the built program and installs the
// result. Singleflight and LRU behavior match GetCtx; build and
// profile run at most once per admission. The profile func receives
// the shared admission's work context (see GetCtx for the cancellation
// contract).
func (p *Pool) GetBuiltCtx(ctx context.Context, name string, build func() *program.Program, profile func(ctx context.Context, prog *program.Program) (*Profiled, error)) (*Profiled, error) {
	return p.admit(ctx, name, func(wctx context.Context) (r admitResult) {
		prog := build()
		id := artifact.WorkloadID{Name: name, MinDynInsts: p.opt.MinDynInsts, Code: prog.Fingerprint()}
		if p.opt.Store != nil {
			tr, prof, lerr := p.opt.Store.LoadWorkload(id)
			switch {
			case lerr == nil:
				r.pw, r.fromDisk = &Profiled{Name: name, Trace: tr, Prof: prof}, true
			case !errors.Is(lerr, artifact.ErrNotFound):
				// Unusable artifact: never served, profiling proceeds.
				r.badDisk = true
			}
		}
		if r.pw == nil {
			r.pw, r.err = profile(wctx, prog)
			if r.err == nil && r.pw != nil && p.opt.Store != nil {
				if key, serr := p.opt.Store.SaveWorkload(id, r.pw.Trace, r.pw.Prof); serr != nil {
					r.badDisk = true
				} else if key != "" {
					r.wrote = true
				}
			}
		}
		if r.err == nil && r.pw != nil && p.opt.Store != nil {
			r.pw.AttachArtifacts(p.opt.Store, p.opt.Store.WorkloadKey(id))
		}
		return r
	})
}

// isCancellation reports whether err is a context cancellation or
// deadline — the class of admission failures a still-live request
// retries rather than reports (they describe some other request's
// lifetime, not this one's).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// retryCancelled runs attempt until it succeeds, fails for a reason
// other than cancellation, or ctx itself ends. A cancellation observed
// while ctx is still live came from another request's claim, which was
// evicted for retry; the retry re-claims and computes it under ctx, so
// only ctx can cancel it again, which bounds the retries.
func retryCancelled[T any](ctx context.Context, attempt func() (T, error)) (T, error) {
	for {
		v, err := attempt()
		if err == nil || !isCancellation(err) || ctx.Err() != nil {
			return v, err
		}
	}
}

// admit joins (or creates) the singleflight admission for name and
// waits for it under ctx. The admission runs detached, so the entry is
// always resolved no matter which requests come and go; a request that
// observes a cancelled admission while its own ctx is still live
// re-admits — as the new creator it holds a reference, so its run can
// only be cancelled by its own departure, which guarantees progress.
func (p *Pool) admit(ctx context.Context, name string, admission func(context.Context) admitResult) (*Profiled, error) {
	first := true
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.mu.Lock()
		e, ok := p.entries[name]
		if ok {
			if first {
				p.hits++
			}
			p.clock++
			e.lastUse = p.clock
			e.refs++
			p.mu.Unlock()
		} else {
			if first {
				p.misses++
			}
			wctx, cancel := context.WithCancel(context.Background())
			e = &poolEntry{done: make(chan struct{}), refs: 1, cancel: cancel}
			p.clock++
			e.lastUse = p.clock
			p.entries[name] = e
			// Eviction waits for completion (in runAdmission): evicting
			// a healthy resident now would destroy profiling work before
			// knowing whether this admission even succeeds, and the
			// transient in-flight overflow is bounded by the number of
			// concurrent cold requests.
			p.mu.Unlock()
			go p.runAdmission(wctx, name, e, admission)
		}
		first = false

		select {
		case <-e.done:
			p.mu.Lock()
			e.refs--
			p.mu.Unlock()
		case <-ctx.Done():
			// Abandon the wait: drop our reference and cancel the work
			// if nobody else is waiting for it. The admission goroutine
			// still resolves the entry (with its cancellation error),
			// so no future request can wedge on it.
			p.mu.Lock()
			e.refs--
			if e.refs == 0 {
				select {
				case <-e.done:
				default:
					e.cancel()
				}
			}
			p.mu.Unlock()
			return nil, ctx.Err()
		}
		if e.err != nil && isCancellation(e.err) && ctx.Err() == nil {
			// The shared run died of someone else's cancellation; this
			// request is still live, so admit again.
			continue
		}
		return e.pw, e.err
	}
}

// runAdmission executes one admission to completion and resolves its
// entry. It runs detached from any request: waiters come and go, and
// wctx — not any single request's context — governs the work.
func (p *Pool) runAdmission(wctx context.Context, name string, e *poolEntry, admission func(context.Context) admitResult) {
	defer e.cancel() // release the work context once resolved

	// The admission runs arbitrary workload-build code; convert a
	// panic into a failed admission so the entry is always resolved —
	// an unclosed done channel would wedge every future lookup for this
	// name (net/http recovers handler panics, so a long-running
	// service would otherwise keep the dead entry forever).
	r := func() (r admitResult) {
		defer func() {
			if rec := recover(); rec != nil {
				r = admitResult{err: fmt.Errorf("harness: profiling %q panicked: %v", name, rec)}
			}
		}()
		return admission(wctx)
	}()
	if r.err == nil && r.pw == nil {
		r.err = fmt.Errorf("harness: pool profile func for %q returned no workload", name)
	}
	if r.err == nil {
		r.pw.SetAnnotBudget(p.perWorkloadBudget())
	}

	p.mu.Lock()
	switch {
	case r.fromDisk:
		p.diskHits++
	case isCancellation(r.err):
		// A cancelled run produced nothing; counting it as a profiling
		// run would break the "warm process profiles nothing" pins.
	default:
		p.profiles++
	}
	if r.wrote {
		p.diskWrites++
	}
	if r.badDisk {
		p.diskErrors++
	}
	e.pw, e.err = r.pw, r.err
	if r.err != nil && p.entries[name] == e {
		delete(p.entries, name)
	}
	close(e.done)
	// Re-enforce the bound now that this admission completed:
	// concurrent cold misses can push the pool past MaxWorkloads while
	// every entry is still in flight (nothing is evictable then), and
	// without this pass the excess would stay resident until the next
	// cold miss.
	p.evictLocked(e)
	p.mu.Unlock()
}

// evictLocked enforces MaxWorkloads, evicting completed entries
// least-recently-used-first. The just-admitted entry keep is never
// evicted; in-flight admissions are skipped (they are bounded by the
// number of concurrent callers and complete quickly). Callers hold
// p.mu.
func (p *Pool) evictLocked(keep *poolEntry) {
	if p.opt.MaxWorkloads <= 0 {
		return
	}
	for len(p.entries) > p.opt.MaxWorkloads {
		var (
			victim string
			found  bool
			oldest int64
		)
		for name, e := range p.entries {
			if e == keep {
				continue
			}
			select {
			case <-e.done:
			default:
				continue // in flight
			}
			if !found || e.lastUse < oldest {
				victim, oldest, found = name, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(p.entries, victim)
		p.evictions++
	}
}

// Resident reports whether a completed workload is currently resident.
func (p *Pool) Resident(name string) bool {
	p.mu.Lock()
	e, ok := p.entries[name]
	p.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
	}
}

// Stats snapshots the pool's counters. The per-workload byte and
// statistics-walk totals are summed after releasing p.mu: Counters takes each workload's
// annotation-store lock, and holding p.mu across those would serialize
// every concurrent lookup behind a metrics scrape.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	s := PoolStats{
		Hits:       p.hits,
		Misses:     p.misses,
		Evictions:  p.evictions,
		Profiles:   p.profiles,
		DiskHits:   p.diskHits,
		DiskWrites: p.diskWrites,
		DiskErrors: p.diskErrors,
	}
	var resident []*Profiled
	for _, e := range p.entries {
		select {
		case <-e.done:
			if e.err == nil {
				s.Resident++
				resident = append(resident, e.pw)
			}
		default:
			s.InFlight++
		}
	}
	p.mu.Unlock()
	for _, pw := range resident {
		c := pw.Counters()
		s.PlaneBytes += c.Bytes
		s.StatsTraversals += c.StatsTraversals
	}
	return s
}
