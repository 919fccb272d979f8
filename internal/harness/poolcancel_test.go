package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/program"
)

// waitSettled polls until the process goroutine count drops back to at
// most base+slack (the runtime keeps a few service goroutines of its
// own alive, and test machinery adds noise).
func waitSettled(t *testing.T, base int, what string) {
	t.Helper()
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d running, started from %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolGetCtxCancelledLeaderHandsOff pins the singleflight handoff:
// the request that created an admission dies, but a second request
// waiting on the same name keeps the work alive and receives the
// result — the profiling run is never aborted while anyone wants it,
// and it runs exactly once.
func TestPoolGetCtxCancelledLeaderHandsOff(t *testing.T) {
	p := NewPool(PoolOptions{})
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int
	profile := func(ctx context.Context) (*Profiled, error) {
		runs++
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return buildFor(t, "crc32")(ctx)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := p.GetCtx(leaderCtx, "crc32", profile)
		leaderErr <- err
	}()
	<-started

	followerRes := make(chan error, 1)
	go func() {
		pw, err := p.GetCtx(context.Background(), "crc32", profile)
		if err == nil && pw == nil {
			err = errors.New("nil workload without error")
		}
		followerRes <- err
	}()
	// The follower must be registered as a waiter before the leader
	// leaves, or this test races handoff against cancellation.
	for {
		p.mu.Lock()
		e := p.entries["crc32"]
		refs := 0
		if e != nil {
			refs = e.refs
		}
		p.mu.Unlock()
		if refs >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-followerRes; err != nil {
		t.Fatalf("follower after leader handoff: %v", err)
	}
	if runs != 1 {
		t.Fatalf("profile ran %d times, want 1 (handoff, not re-admission)", runs)
	}
	if !p.Resident("crc32") {
		t.Fatal("workload not resident after handed-off admission completed")
	}
}

// TestPoolGetCtxLastWaiterCancelsWork pins the abort side: when every
// interested request has abandoned an in-flight admission, its work
// context is cancelled — profiling stops instead of running to
// completion for nobody — and the failed entry is not cached, so the
// next request re-admits cleanly.
func TestPoolGetCtxLastWaiterCancelsWork(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(PoolOptions{})
	started := make(chan struct{})
	workCancelled := make(chan struct{})
	profile := func(ctx context.Context) (*Profiled, error) {
		close(started)
		<-ctx.Done() // simulate a long run that honors cancellation
		close(workCancelled)
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := p.GetCtx(ctx, "x", profile)
		got <- err
	}()
	<-started
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request returned %v, want context.Canceled", err)
	}
	select {
	case <-workCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight work was not cancelled after the last waiter left")
	}

	// The cancelled admission must not be cached: a fresh request
	// profiles again and succeeds.
	pw, err := p.GetCtx(context.Background(), "x", buildFor(t, "crc32"))
	if err != nil || pw == nil {
		t.Fatalf("GetCtx after cancelled admission = %v, %v; want success", pw, err)
	}
	waitSettled(t, base+1, "cancelled admission") // +1: the fresh entry holds no goroutine; slack for test runner
}

// TestPoolLateWaiterRetriesCancelledAdmission pins progress through
// the narrow window the refcounting leaves open: the last waiter
// leaves and the work is cancelled, but before the doomed admission
// resolves, a fresh request joins its entry. That request observes
// someone else's cancellation error while its own context is live, so
// it must re-admit (as creator of the retry it holds a reference, and
// the new run can then only die with its own context) — not report
// the stranger's cancellation.
func TestPoolLateWaiterRetriesCancelledAdmission(t *testing.T) {
	p := NewPool(PoolOptions{})
	started := make(chan struct{})
	proceed := make(chan struct{})
	profile := func(ctx context.Context) (*Profiled, error) {
		close(started)
		<-ctx.Done()
		// Hold resolution open until the test has parked the late
		// waiter on this doomed entry.
		<-proceed
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	leader := make(chan error, 1)
	go func() {
		_, err := p.GetCtx(ctx, "x", profile)
		leader <- err
	}()
	<-started
	cancel()
	if err := <-leader; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}

	// The work context is now cancelled but the entry is unresolved;
	// the late request joins exactly that doomed entry.
	late := make(chan error, 1)
	go func() {
		pw, err := p.GetCtx(context.Background(), "x", buildFor(t, "crc32"))
		if err == nil && pw == nil {
			err = errors.New("nil workload without error")
		}
		late <- err
	}()
	for {
		p.mu.Lock()
		e := p.entries["x"]
		refs := 0
		if e != nil {
			refs = e.refs
		}
		p.mu.Unlock()
		if refs >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(proceed)
	if err := <-late; err != nil {
		t.Fatalf("late waiter did not recover from the cancelled admission: %v", err)
	}
	if !p.Resident("x") {
		t.Fatal("workload not resident after the late waiter's re-admission")
	}
}

// TestPoolEvictionRacesCancelledGetBuilt is the -race stress for the
// satellite contract: a MaxWorkloads=1 pool under concurrent GetBuiltCtx
// for several names, with requests cancelled mid-admission while
// others wait, must neither corrupt the singleflight table nor leak
// the detached admission goroutines — afterwards every name is still
// admittable with a correct result and the goroutine count settles.
func TestPoolEvictionRacesCancelledGetBuilt(t *testing.T) {
	base := runtime.NumGoroutine()
	p := NewPool(PoolOptions{MaxWorkloads: 1})
	names := []string{"crc32", "sha", "dijkstra", "patricia"}
	profileOf := func(name string) func(context.Context, *program.Program) (*Profiled, error) {
		return func(ctx context.Context, prog *program.Program) (*Profiled, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return ProfileProgram(prog)
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, name := range names {
			wg.Add(1)
			go func(name string, doomed bool, delay time.Duration) {
				defer wg.Done()
				ctx := context.Background()
				if doomed {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, delay)
					defer cancel()
				}
				spec := mustSpec(t, name)
				pw, err := p.GetBuiltCtx(ctx, name, spec.Build, profileOf(name))
				switch {
				case err == nil && pw == nil:
					t.Error("GetBuiltCtx returned nil workload without error")
				case err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("GetBuiltCtx(%s): %v", name, err)
				}
			}(name, i%2 == 0, time.Duration(1+(round*7+i)%9)*time.Millisecond)
		}
	}
	wg.Wait()

	// The singleflight table must still work for every name: no entry
	// wedged by a dead admission, and results are real workloads.
	for _, name := range names {
		spec := mustSpec(t, name)
		pw, err := p.GetBuiltCtx(context.Background(), name, spec.Build, profileOf(name))
		if err != nil || pw == nil || pw.Trace.Len() == 0 {
			t.Fatalf("post-race GetBuiltCtx(%s) = %v, %v; want a live workload", name, pw, err)
		}
	}
	st := p.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in-flight admissions after all requests finished: %+v", st)
	}
	if st.Resident > 1 {
		t.Fatalf("MaxWorkloads=1 pool holds %d resident workloads", st.Resident)
	}
	waitSettled(t, base, "cancelled GetBuilt race")
}
