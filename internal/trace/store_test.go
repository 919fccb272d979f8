package trace_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/pipeline"
	"repro/internal/pipeline/seedref"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// recordBoth executes p twice — once into the legacy array-of-structs
// Recorder, once into the columnar Builder — so the two encodings of
// the same deterministic run can be compared.
func recordBoth(t *testing.T, p *program.Program) (*trace.Trace, []trace.DynInst) {
	t.Helper()
	rec := &trace.Recorder{}
	if _, err := funcsim.RunProgram(p, rec); err != nil {
		t.Fatal(err)
	}
	tb := trace.NewBuilder()
	if _, err := funcsim.RunProgram(p, tb); err != nil {
		t.Fatal(err)
	}
	return tb.Trace(), rec.Insts
}

// TestTraceRoundTripsRecorder verifies the columnar store reproduces
// the legacy Recorder trace bit-exactly, record by record — including
// the derived Seq and NextPC fields.
func TestTraceRoundTripsRecorder(t *testing.T) {
	for name, build := range roundTripCorpus(t) {
		t.Run(name, func(t *testing.T) {
			tr, aos := recordBoth(t, build)
			if tr.Len() != int64(len(aos)) {
				t.Fatalf("Len = %d, want %d", tr.Len(), len(aos))
			}
			for i := range aos {
				if got := tr.At(int64(i)); got != aos[i] {
					t.Fatalf("inst %d:\n got  %+v\n want %+v", i, got, aos[i])
				}
			}
			mat := tr.Materialize()
			for i := range aos {
				if mat[i] != aos[i] {
					t.Fatalf("Materialize[%d]:\n got  %+v\n want %+v", i, mat[i], aos[i])
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
			tr, aos := recordBoth(t, build)

			collect := func(feed func(trace.Consumer)) (cache.Stats, branch.Stats) {
				h, err := cache.NewHierarchy(cfg.Hier)
				if err != nil {
					t.Fatal(err)
				}
				cc := cache.NewCollector(h)
				bc := branch.NewCollector(cfg.Predictor.New())
				feed(trace.Tee{cc, bc})
				return cc.Stats(), bc.S
			}
			gotC, gotB := collect(tr.Replay)
			wantC, wantB := collect(func(c trace.Consumer) {
				for i := range aos {
					c.Consume(&aos[i])
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
	for cur := tr.Cursor(); ; {
		ck, ok := cur.Next()
		if !ok {
			break
		}
		if ck.Base != seen {
			t.Errorf("chunk Base = %d, want %d", ck.Base, seen)
		}
		seen += int64(ck.N)
	}
	if seen != n {
		t.Errorf("cursor covered %d of %d", seen, n)
	}
}

// TestEmptyTrace checks nil/empty behaviour.
func TestEmptyTrace(t *testing.T) {
	var nilTr *trace.Trace
	if nilTr.Len() != 0 || nilTr.NumChunks() != 0 || nilTr.SizeBytes() != 0 {
		t.Error("nil trace not empty")
	}
	nilTr.Replay(trace.ConsumerFunc(func(*trace.DynInst) { t.Error("replayed from nil trace") }))
	tr := trace.NewBuilder().Trace()
	if tr.Len() != 0 || len(tr.Materialize()) != 0 {
		t.Error("fresh builder trace not empty")
	}
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

// TestTraceDensity pins the dictionary encoding's footprint: 8 bytes
// per instruction plus the dictionary's share, reported identically by
// built, decoded and mapped traces.
func TestTraceDensity(t *testing.T) {
	for _, name := range []string{"gsm_c", "bitcount"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := record(t, spec.Build())
		dict := int64(len(tr.Dictionary())) * int64(unsafe.Sizeof(trace.Static{}))
		if perInst := float64(tr.SizeBytes()-dict) / float64(tr.Len()); perInst > 8 {
			t.Errorf("%s: %.3f bytes/inst beyond the dictionary's %d bytes, want <= 8", name, perInst, dict)
		}
		enc := encode(t, tr)
		decoded, err := trace.ReadTraceFrom(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := trace.MapTrace(enc)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.SizeBytes() != tr.SizeBytes() || mapped.SizeBytes() != tr.SizeBytes() {
			t.Errorf("%s: SizeBytes built %d, decoded %d, mapped %d", name, tr.SizeBytes(), decoded.SizeBytes(), mapped.SizeBytes())
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
		decoded, err := trace.ReadTraceFrom(bytes.NewReader(enc))
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
