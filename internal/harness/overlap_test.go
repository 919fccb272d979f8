package harness

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/funcsim"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/trace"
)

// onePass profiles a finished trace with one Profiler over its chunks
// in order: the profile of the whole trace, computed after the fact.
func onePass(name string, tr *trace.Trace) *profile.Profile {
	p := new(profile.Profiler)
	chunks := tr.Chunks()
	for i := range chunks {
		p.Add(&chunks[i])
	}
	return p.Finish(name, tr.Dictionary())
}

// checkOverlap fails t unless pw's profile, computed beside execution,
// equals the one-pass profile of its finished trace.
func checkOverlap(t *testing.T, pw *Profiled) {
	t.Helper()
	if want := onePass(pw.Name, pw.Trace); !reflect.DeepEqual(pw.Prof, want) {
		t.Fatalf("%s: profile computed beside execution differs from the one-pass profile:\n got  %+v\n want %+v", pw.Name, pw.Prof, want)
	}
	if pw.Prof.N != pw.Trace.Len() {
		t.Fatalf("%s: profile N=%d, trace holds %d", pw.Name, pw.Prof.N, pw.Trace.Len())
	}
}

// TestOverlappedProfileMatchesOnePass checks every program of the
// golden corpus, profiled through its entry point.
func TestOverlappedProfileMatchesOnePass(t *testing.T) {
	for _, c := range goldenCorpus() {
		pw, err := c.profile(c.build())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkOverlap(t, pw)
	}
}

// loopProgram returns a program that executes exactly n instructions
// (n ≥ 64): a loop of a load, a multiply on it, a divide and ALU ops,
// whose dependencies cross every chunk edge the loop spans, then a run
// of dependent ALU instructions that pads the count to n.
func loopProgram(t *testing.T, n int64) *program.Program {
	t.Helper()
	build := func(iters, pad int64) *program.Program {
		p := program.New("loop", 64)
		p.Block("init").Li(1, iters).Li(2, 3)
		p.Block("body").
			Ld(3, 0, 7).Mul(4, 3, 1).Add(5, 4, 2).Div(6, 5, 2).St(6, 0, 9).
			Addi(1, 1, -1).Bne(1, 0, "body")
		tail := p.Block("tail")
		for range pad {
			tail.Addi(7, 7, 1)
		}
		tail.Halt()
		return p
	}
	iters := (n - 32) / 7
	n0, err := funcsim.RunProgram(build(iters, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := build(iters, n-n0)
	if got, err := funcsim.RunProgram(p, nil); err != nil || got != n {
		t.Fatalf("loop program runs %d instructions (err %v), want %d", got, err, n)
	}
	return p
}

// TestOverlappedProfileChunkEdges covers traces that end at a chunk
// edge, where the last chunk is full but the builder never seals it,
// and one instruction either side of it, where the last chunk is one
// instruction short of full or a one-instruction tail.
func TestOverlappedProfileChunkEdges(t *testing.T) {
	for _, n := range []int64{trace.ChunkLen - 1, trace.ChunkLen, trace.ChunkLen + 1, 2 * trace.ChunkLen, 2*trace.ChunkLen + 1} {
		pw, err := ProfileProgram(loopProgram(t, n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := pw.Trace.NumChunks(), int((n+trace.ChunkLen-1)/trace.ChunkLen); got != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, got, want)
		}
		checkOverlap(t, pw)
	}
}

// crossingProgram returns a program whose 257th trace tuple, the first
// whose id does not fit a byte, is first executed at instruction at (at
// >= 260): two counted loops, of three and two instructions, whose trip
// counts place the start of a straight run of 300 distinct
// instructions. The loops and the two counters' set-up make nine
// tuples, so the run's 248th instruction has id 256.
func crossingProgram(t *testing.T, at int64) *program.Program {
	t.Helper()
	const before, run = trace.NarrowTuples - 9, 300
	left := at - before - 2 // the loops' instructions: 3a + 2c
	c := int64(2)
	for (left-2*c)%3 != 0 {
		c++
	}
	p := program.New("crossing", 8)
	p.Block("init").Li(1, (left-2*c)/3).Li(3, c)
	p.Block("a").Addi(2, 2, 1).Addi(1, 1, -1).Bne(1, 0, "a")
	p.Block("b").Addi(3, 3, -1).Bne(3, 0, "b")
	tail := p.Block("tail")
	for range run {
		tail.Addi(4, 4, 1)
	}
	tail.Halt()
	return p
}

// TestOverlappedProfileWidthCrossing puts the first id that does not
// fit a byte at the last instruction of the first chunk, at the first
// of the second and one after it, with the profiler goroutine taking
// the sealed chunks. The chunk it lands in is wide, every chunk before
// it narrow, the profile equals the one-pass profile of the finished
// trace, and no goroutine is left behind.
func TestOverlappedProfileWidthCrossing(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, at := range []int64{trace.ChunkLen - 1, trace.ChunkLen, trace.ChunkLen + 1} {
		pw, err := ProfileProgram(crossingProgram(t, at))
		if err != nil {
			t.Fatalf("at=%d: %v", at, err)
		}
		tr := pw.Trace
		chunks := tr.Chunks()
		first := int64(-1)
		for i := int64(0); i < tr.Len() && first < 0; i++ {
			ck := &chunks[i>>trace.ChunkShift]
			if ck.Tuple(int(i&trace.ChunkMask)) == &tr.Dictionary()[trace.NarrowTuples] {
				first = i
			}
		}
		if first != at {
			t.Fatalf("at=%d: the 257th tuple first runs at %d", at, first)
		}
		for c := range chunks {
			if want := int64(c) >= at>>trace.ChunkShift; chunks[c].Wide() != want {
				t.Fatalf("at=%d: chunk %d wide=%v, want %v", at, c, chunks[c].Wide(), want)
			}
		}
		checkOverlap(t, pw)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, started from %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverlappedProfileScaledRuns covers a program re-executed up to a
// minDyn floor, whose runs straddle chunk edges: the dependencies of
// each run's first instructions reach back into the previous run, in
// the chunk before.
func TestOverlappedProfileScaledRuns(t *testing.T) {
	const run = 3*trace.ChunkLen/4 + 5
	pw, err := ProfileProgramScaledCtx(context.Background(), loopProgram(t, run), 5*trace.ChunkLen)
	if err != nil {
		t.Fatal(err)
	}
	if runs := pw.Trace.Len() / run; runs != 7 || pw.Trace.Len()%run != 0 {
		t.Fatalf("trace holds %d instructions, want 7 runs of %d", pw.Trace.Len(), run)
	}
	checkOverlap(t, pw)
}

// panicCtx panics from its polls-th Err call. The interpreter polls
// Err on the goroutine that executes the program, so the panic comes
// from inside a run, after chunks have gone to the profiler. No program
// can make execution panic, since Build rejects out-of-range registers.
type panicCtx struct {
	context.Context
	polls int
}

func (c *panicCtx) Err() error {
	if c.polls--; c.polls == 0 {
		panic("execution")
	}
	return c.Context.Err()
}

// TestProfilerGoroutineJoinedOnFailure drives the sandboxed entry
// point through every way a profile fails after the profiler goroutine
// has started, most of them after it has been handed chunks: each must
// return its error, and leave no goroutine behind.
func TestProfilerGoroutineJoinedOnFailure(t *testing.T) {
	spin := func() *program.Program { // an infinite loop
		p := program.New("spin", 8)
		p.Block("loop").Addi(1, 1, 1).Jmp("loop")
		return p
	}
	// after runs a twelve-chunk loop, then the instructions of end: more
	// chunks than the queue holds follow a panic in the first one.
	after := func(end func(*program.Builder)) *program.Program {
		p := program.New("after", 8)
		p.Block("init").Li(1, 4*trace.ChunkLen)
		p.Block("body").Addi(2, 2, 1).Addi(1, 1, -1).Bne(1, 0, "body")
		end(p.Block("end"))
		return p
	}
	// wide records more tuples than the dictionary holds.
	wide := func() *program.Program {
		p := program.New("wide", 8)
		b := p.Block("main")
		for range trace.MaxTuples + 1 {
			b.Addi(1, 1, 1)
		}
		b.Halt()
		return p
	}
	cases := []struct {
		name    string
		prog    func() *program.Program
		timeout time.Duration
		polls   int // the context panics on this Err call, if set
		maxDyn  int64
		want    error  // matched with errors.Is, if set
		substr  string // otherwise matched against the message
		hook    func(*profile.Profiler, *trace.Columns)
	}{
		{name: "deadline", prog: spin, timeout: 50 * time.Millisecond, maxDyn: 1 << 40, want: context.DeadlineExceeded},
		{name: "instruction cap", prog: spin, maxDyn: 3*trace.ChunkLen + 5, want: funcsim.ErrMaxInstructions},
		{name: "memory fault", prog: func() *program.Program {
			return after(func(b *program.Builder) { b.Ld(3, 0, 1<<20).Halt() })
		}, want: funcsim.ErrMemFault},
		{name: "PC fault", prog: func() *program.Program {
			return after(func(b *program.Builder) { b.Nop() })
		}, want: funcsim.ErrPCFault},
		{name: "dictionary full", prog: wide, want: trace.ErrDictionaryFull},
		// One poll before the run, then one every 4 chunks within it:
		// the fourth comes 8 chunks into the run.
		{name: "panic in execution", prog: func() *program.Program {
			return after(func(b *program.Builder) { b.Halt() })
		}, polls: 4, substr: "panicked: execution"},
		{name: "panic in the profiler", prog: func() *program.Program {
			return after(func(b *program.Builder) { b.Halt() })
		}, substr: "panicked: profiler", hook: func(*profile.Profiler, *trace.Columns) { panic("profiler") }},
	}
	base := runtime.NumGoroutine()
	for _, c := range cases {
		if c.hook != nil {
			addChunk = c.hook
		}
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if c.timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
		}
		if c.polls > 0 {
			ctx, cancel = context.WithCancel(ctx)
			ctx = &panicCtx{Context: ctx, polls: c.polls}
		}
		type result struct {
			pw  *Profiled
			err error
		}
		res := make(chan result, 1)
		go func() {
			pw, err := ProfileProgramSandboxedCtx(ctx, c.prog(), 0, c.maxDyn)
			res <- result{pw, err}
		}()
		var r result
		select {
		case r = <-res:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: profiling did not return", c.name)
		}
		pw, err := r.pw, r.err
		cancel()
		addChunk = (*profile.Profiler).Add
		if pw != nil || err == nil {
			t.Fatalf("%s: got a profile (err %v)", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) || c.want == nil && !strings.Contains(err.Error(), c.substr) {
			t.Fatalf("%s: err = %v", c.name, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines running, started from %d", c.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
