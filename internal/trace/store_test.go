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
	"repro/internal/pipeline/seedref"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// TestTraceRoundTripsRecorder verifies that what the functional
// simulator records reads back consistently through every access path:
// At and Materialize agree record by record, Seq is the position, every
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
			mat := tr.Materialize()
			if tr.Len() != int64(len(mat)) {
				t.Fatalf("Len = %d, Materialize has %d", tr.Len(), len(mat))
			}
			for i, d := range mat {
				if got := tr.At(int64(i)); got != d {
					t.Fatalf("inst %d:\n At          %+v\n Materialize %+v", i, got, d)
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
				if i+1 < len(mat) && d.NextPC != mat[i+1].PC {
					t.Fatalf("inst %d: NextPC %d, next PC %d", i, d.NextPC, mat[i+1].PC)
				}
			}
		})
	}
}

// TestTraceReplayMatchesAoSDownstream verifies the downstream machine
// statistics — cache.Stats, branch.Stats and the detailed simulator's
// full Result — are identical whether collected from the columnar
// replay or from the legacy slice.
func TestTraceReplayMatchesAoSDownstream(t *testing.T) {
	cfg := uarch.Default()
	for name, build := range roundTripCorpus(t) {
		t.Run(name, func(t *testing.T) {
			tr := record(t, build)
			aos := tr.Materialize()

			collect := func(feed func(func(*trace.DynInst))) (cache.Stats, branch.Stats) {
				h, err := cache.NewHierarchy(cfg.Hier)
				if err != nil {
					t.Fatal(err)
				}
				bc := branch.NewCollector(cfg.Predictor.New())
				feed(func(d *trace.DynInst) {
					h.Consume(d)
					bc.Consume(d)
				})
				return h.S, bc.S
			}
			gotC, gotB := collect(func(sink func(*trace.DynInst)) {
				if err := tr.ReplayCtx(context.Background(), sink); err != nil {
					t.Fatal(err)
				}
			})
			wantC, wantB := collect(func(sink func(*trace.DynInst)) {
				for i := range aos {
					sink(&aos[i])
				}
			})
			if gotC != wantC {
				t.Errorf("cache stats diverge:\n got  %+v\n want %+v", gotC, wantC)
			}
			if gotB != wantB {
				t.Errorf("branch stats diverge:\n got  %+v\n want %+v", gotB, wantB)
			}

			sim, err := pipeline.Simulate(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := seedref.Simulate(aos, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sim != pipeline.Result(ref) {
				t.Errorf("simulation diverges:\n got  %+v\n want %+v", sim, ref)
			}
		})
	}
}

// TestTraceChunkBoundaries exercises Seq/chunk arithmetic across
// multiple chunks with a trace longer than several chunk lengths.
func TestTraceChunkBoundaries(t *testing.T) {
	n := int64(3*trace.ChunkLen + 17)
	b := trace.NewBuilder()
	for i := int64(0); i < n; i++ {
		d := trace.DynInst{Seq: i, PC: i % 1000, Op: 1, Class: 1}
		b.Append(&d)
	}
	tr := b.Trace()
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if tr.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d, want 4", tr.NumChunks())
	}
	for _, i := range []int64{0, 1, trace.ChunkLen - 1, trace.ChunkLen, 2*trace.ChunkLen + 5, n - 1} {
		d := tr.At(i)
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
	if err := nilTr.ReplayCtx(context.Background(), func(*trace.DynInst) { t.Error("replayed from nil trace") }); err != nil {
		t.Errorf("nil trace replay: %v", err)
	}
	tr := trace.NewBuilder().Trace()
	if tr.Len() != 0 || len(tr.Materialize()) != 0 {
		t.Error("fresh builder trace not empty")
	}
}

// TestAppendRejectsBrokenAddresses pins the invariants the dense
// address column relies on: Append panics on an address outside 32
// bits and on a non-zero address of an instruction that is neither a
// load nor a store, and accepts an address on a load or store.
func TestAppendRejectsBrokenAddresses(t *testing.T) {
	cases := []struct {
		name  string
		d     trace.DynInst
		panic bool
	}{
		{"load-beyond-32-bits", trace.DynInst{IsLoad: true, EffAddr: 1 << 32}, true},
		{"alu-with-address", trace.DynInst{Op: isa.ADD, Class: isa.ClassALU, EffAddr: 5}, true},
		{"store-with-address", trace.DynInst{Op: isa.ST, Class: isa.ClassStore, IsStore: true, EffAddr: 5}, false},
		{"alu-without-address", trace.DynInst{Op: isa.ADD, Class: isa.ClassALU}, false},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panic {
					t.Errorf("%s: Append panicked = %v, want %v", c.name, got, c.panic)
				}
			}()
			trace.NewBuilder().Append(&c.d)
		}()
	}
}

// TestInternCapsDictionary pins the dictionary cap: MaxTuples distinct
// tuples intern to ids 0..MaxTuples-1, a further new tuple fails with
// ErrDictionaryFull while known tuples still resolve, and Append, the
// record adapter, panics on the new tuple.
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
	defer func() {
		if recover() == nil {
			t.Fatal("Append past the cap did not panic")
		}
	}()
	b.Append(&trace.DynInst{PC: trace.MaxTuples, Op: isa.ADD, Class: isa.ClassALU})
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
// seeded generated ones, from its materialized records: the rebuilt
// trace must encode to the same bytes (same dictionary, same ids), and
// the decoded stream must materialize to the same records.
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
		mat := tr.Materialize()
		enc := encode(t, tr)
		if !bytes.Equal(encode(t, trace.Of(mat...)), enc) {
			t.Errorf("%s: trace rebuilt from Materialize encodes differently", name)
		}
		decoded, err := trace.MapTrace(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(decoded.Materialize(), mat) {
			t.Errorf("%s: decoded trace materializes differently", name)
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
