package trace_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestTraceRoundTripsRecorder verifies that what the functional
// simulator records reads back consistently: tracetest.At and
// tracetest.Records agree record by record, Seq is the position, every
// record carries the static fields of the program's instruction at its
// PC, and NextPC is the next record's PC. The exact encodings are
// pinned separately, by the golden digests in internal/harness.
func TestTraceRoundTripsRecorder(t *testing.T) {
	for name, p := range roundTripCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ins, err := p.Build()
			if err != nil {
				t.Fatal(err)
			}
			tr := record(t, p)
			recs := tracetest.Records(tr)
			if tr.Len() != int64(len(recs)) {
				t.Fatalf("Len = %d, Records has %d", tr.Len(), len(recs))
			}
			for i, d := range recs {
				if got := tracetest.At(tr, int64(i)); got != d {
					t.Fatalf("inst %d:\n At      %+v\n Records %+v", i, got, d)
				}
				in := ins[d.PC]
				var srcs [2]isa.Reg
				n := copy(srcs[:], in.SrcRegs(nil))
				ctl := in.IsControl()
				if d.Seq != int64(i) || d.Op != in.Op || d.Class != isa.ClassOf(in.Op) ||
					d.HasDst != in.HasDst() || (d.HasDst && d.Dst != in.Dst) ||
					d.Src != srcs || d.NumSrc != n ||
					d.IsLoad != (in.Op == isa.LD) || d.IsStore != (in.Op == isa.ST) ||
					d.IsBranch != (d.Class == isa.ClassBranch) || d.IsJump != (d.Class == isa.ClassJump) ||
					(ctl && d.Target != int64(in.Target)) || (!ctl && d.Taken) {
					t.Fatalf("inst %d %+v does not match %v at PC %d", i, d, in, d.PC)
				}
				if i+1 < len(recs) && d.NextPC != recs[i+1].PC {
					t.Fatalf("inst %d: NextPC %d, next PC %d", i, d.NextPC, recs[i+1].PC)
				}
			}
		})
	}
}

// TestTraceReplayMatchesAoSDownstream verifies the downstream machine
// statistics — cache.Stats, branch.Stats and the detailed simulator's
// full Result — are identical on a recorded trace and on the trace
// rebuilt from its records.
func TestTraceReplayMatchesAoSDownstream(t *testing.T) {
	cfg := uarch.Default()
	for name, build := range roundTripCorpus(t) {
		t.Run(name, func(t *testing.T) {
			tr := record(t, build)
			rebuilt := tracetest.Of(tracetest.Records(tr)...)

			collect := func(tr *trace.Trace) (cache.Stats, branch.Stats, pipeline.Result) {
				h, err := cache.NewHierarchy(cfg.Hier)
				if err != nil {
					t.Fatal(err)
				}
				bcs := []*branch.Collector{branch.NewCollector(cfg.Predictor.New())}
				if err := tr.EachChunk(context.Background(), func(ck *trace.Columns) {
					h.ConsumeChunk(ck)
					branch.ConsumeChunk(ck, bcs, nil)
				}); err != nil {
					t.Fatal(err)
				}
				sim, err := pipeline.Simulate(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h.S, bcs[0].S, sim
			}
			gotC, gotB, gotR := collect(tr)
			wantC, wantB, wantR := collect(rebuilt)
			if gotC != wantC {
				t.Errorf("cache stats diverge:\n got  %+v\n want %+v", gotC, wantC)
			}
			if gotB != wantB {
				t.Errorf("branch stats diverge:\n got  %+v\n want %+v", gotB, wantB)
			}
			if gotR != wantR {
				t.Errorf("simulation diverges:\n got  %+v\n want %+v", gotR, wantR)
			}
		})
	}
}

// TestTraceChunkBoundaries exercises Seq/chunk arithmetic across
// multiple chunks with a trace longer than several chunk lengths.
func TestTraceChunkBoundaries(t *testing.T) {
	n := int64(3*trace.ChunkLen + 17)
	recs := make([]tracetest.Inst, n)
	for i := range recs {
		recs[i] = tracetest.Inst{Seq: int64(i), PC: int64(i) % 1000, Op: 1, Class: 1}
	}
	tr := tracetest.Of(recs...)
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d, want 4", tr.NumChunks())
	}
	for _, i := range []int64{0, 1, trace.ChunkLen - 1, trace.ChunkLen, 2*trace.ChunkLen + 5, n - 1} {
		d := tracetest.At(tr, i)
		if d.Seq != i || d.PC != i%1000 {
			t.Errorf("At(%d) = Seq %d PC %d", i, d.Seq, d.PC)
		}
	}
	var seen int64
	for _, ck := range tr.Chunks() {
		if ck.Base != seen {
			t.Errorf("chunk Base = %d, want %d", ck.Base, seen)
		}
		seen += int64(ck.N)
	}
	if seen != n {
		t.Errorf("chunks cover %d of %d", seen, n)
	}
}

// TestEmptyTrace checks nil/empty behaviour.
func TestEmptyTrace(t *testing.T) {
	var nilTr *trace.Trace
	if nilTr.Len() != 0 || nilTr.NumChunks() != 0 || nilTr.SizeBytes() != 0 {
		t.Error("nil trace not empty")
	}
	if err := nilTr.EachChunk(context.Background(), func(*trace.Columns) { t.Error("walked a chunk of a nil trace") }); err != nil {
		t.Errorf("nil trace walk: %v", err)
	}
	tr := trace.NewBuilder().Trace()
	if tr.Len() != 0 || tr.NumChunks() != 0 || len(tracetest.Records(tr)) != 0 {
		t.Error("fresh builder trace not empty")
	}
}

// TestAppendRejectsBrokenAddresses pins the invariants the dense
// address column relies on, as tracetest.Of checks them: it panics on
// an address outside 32 bits and on a non-zero address of an
// instruction that is neither a load nor a store, and accepts an
// address on a load or store.
func TestAppendRejectsBrokenAddresses(t *testing.T) {
	cases := []struct {
		name  string
		d     tracetest.Inst
		panic bool
	}{
		{"load-beyond-32-bits", tracetest.Inst{IsLoad: true, EffAddr: 1 << 32}, true},
		{"alu-with-address", tracetest.Inst{Op: isa.ADD, Class: isa.ClassALU, EffAddr: 5}, true},
		{"store-with-address", tracetest.Inst{Op: isa.ST, Class: isa.ClassStore, IsStore: true, EffAddr: 5}, false},
		{"alu-without-address", tracetest.Inst{Op: isa.ADD, Class: isa.ClassALU}, false},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panic {
					t.Errorf("%s: Of panicked = %v, want %v", c.name, got, c.panic)
				}
			}()
			tracetest.Of(c.d)
		}()
	}
}

// TestInternCapsDictionary pins the dictionary cap: MaxTuples distinct
// tuples intern to ids 0..MaxTuples-1, a further new tuple fails with
// ErrDictionaryFull while known tuples still resolve, and
// tracetest.Of panics on a stream of MaxTuples+1 tuples.
func TestInternCapsDictionary(t *testing.T) {
	b := trace.NewBuilder()
	for pc := int32(0); pc < trace.MaxTuples; pc++ {
		id, err := b.Intern(trace.Static{PC: pc, Op: isa.ADD, Class: isa.ClassALU})
		if err != nil || int32(id) != pc {
			t.Fatalf("tuple %d: id %d, err %v", pc, id, err)
		}
	}
	if _, err := b.Intern(trace.Static{PC: trace.MaxTuples, Op: isa.ADD, Class: isa.ClassALU}); !errors.Is(err, trace.ErrDictionaryFull) {
		t.Fatalf("tuple past the cap: err = %v, want ErrDictionaryFull", err)
	}
	if id, err := b.Intern(trace.Static{PC: 7, Op: isa.ADD, Class: isa.ClassALU}); err != nil || id != 7 {
		t.Fatalf("known tuple on a full dictionary: id %d, err %v", id, err)
	}
	recs := make([]tracetest.Inst, trace.MaxTuples+1)
	for i := range recs {
		recs[i] = tracetest.Inst{PC: int64(i), Op: isa.ADD, Class: isa.ClassALU}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Of past the cap did not panic")
		}
	}()
	tracetest.Of(recs...)
}

// record runs p into a fresh Builder.
func record(t *testing.T, p *program.Program) *trace.Trace {
	t.Helper()
	tb := trace.NewBuilder()
	if _, err := funcsim.RunProgram(p, tb); err != nil {
		t.Fatal(err)
	}
	return tb.Trace()
}

// encode serializes tr.
func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDensity pins the dense encoding's footprint: 1 byte per
// instruction under a dictionary that fits a byte, 2 under a larger
// one, plus 4 per load or store, plus the dictionary's share, reported
// identically by built, decoded and mapped traces. The heap a built
// trace holds after a collection must match SizeBytes within 10%, so a
// builder that pins spare column capacity fails it.
func TestTraceDensity(t *testing.T) {
	rand := randprog.Default(105)
	rand.OuterTrips *= 60 // ~200k instructions, as in the golden corpus
	wide := randprog.Config{Seed: 202, MaxBlocks: 20, MaxInsts: 24, OuterTrips: 350, MemWords: 1 << 12}
	progs := map[string]func() *program.Program{
		"rand-105":  func() *program.Program { return randprog.Generate(rand) },
		"rand-wide": func() *program.Program { return randprog.Generate(wide) }, // 277 tuples
	}
	for _, name := range []string{"gsm_c", "bitcount"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = spec.Build
	}
	for name, build := range progs {
		p := build()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tr := record(t, p)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p) // only the trace may change the live heap
		heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if size := tr.SizeBytes(); math.Abs(float64(heap-size)) > 0.1*float64(size) {
			t.Errorf("%s: built trace holds %d heap bytes, SizeBytes %d", name, heap, size)
		}

		var mem int64
		for _, ck := range tr.Chunks() {
			mem += int64(len(ck.Addr))
		}
		frac := float64(mem) / float64(tr.Len())
		dict := int64(len(tr.Dictionary())) * int64(unsafe.Sizeof(trace.Static{}))
		idBytes := 1.0
		if len(tr.Dictionary()) > trace.NarrowTuples {
			idBytes = 2
		}
		if perInst, bound := float64(tr.SizeBytes()-dict)/float64(tr.Len()), idBytes+4*frac+0.05; perInst > bound {
			t.Errorf("%s: %.3f bytes/inst beyond the dictionary's %d bytes, want <= %.3f (%.1f%% loads and stores)", name, perInst, dict, bound, 100*frac)
		}
		mapped, err := trace.MapTrace(encode(t, tr))
		if err != nil {
			t.Fatal(err)
		}
		if mapped.SizeBytes() != tr.SizeBytes() {
			t.Errorf("%s: SizeBytes built %d, mapped %d", name, tr.SizeBytes(), mapped.SizeBytes())
		}
	}
}

// TestMaterializeRoundTrips rebuilds every named workload's trace, and
// seeded generated ones, from its records (tracetest.Records): the
// rebuilt trace must encode to the same bytes (same dictionary, same
// ids), and the decoded stream must read back as the same records.
func TestMaterializeRoundTrips(t *testing.T) {
	progs := map[string]*program.Program{}
	for _, spec := range workloads.All() {
		progs[spec.Name] = spec.Build()
	}
	for seed := int64(11); seed <= 14; seed++ {
		cfg := randprog.Default(seed)
		cfg.OuterTrips = 20
		progs[fmt.Sprintf("randprog-%d", seed)] = randprog.Generate(cfg)
	}
	for name, p := range progs {
		tr := record(t, p)
		recs := tracetest.Records(tr)
		enc := encode(t, tr)
		if !bytes.Equal(encode(t, tracetest.Of(recs...)), enc) {
			t.Errorf("%s: trace rebuilt from its records encodes differently", name)
		}
		decoded, err := trace.MapTrace(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tracetest.Records(decoded), recs) {
			t.Errorf("%s: decoded trace reads back differently", name)
		}
	}
}

// roundTripCorpus returns named program builders for the differential
// tests: four random programs and two real workloads.
func roundTripCorpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	out := map[string]*program.Program{}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := randprog.Default(seed)
		cfg.OuterTrips = 20
		out[fmt.Sprintf("randprog-%d", seed)] = randprog.Generate(cfg)
	}
	for _, name := range []string{"sha", "dijkstra"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = spec.Build()
	}
	return out
}
