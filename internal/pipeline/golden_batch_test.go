package pipeline_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
)

// goldenBatchFile pins every Result field of SimulateAnnotatedBatch on
// traces whose lengths sit at the kernel's block and chunk edges. It
// was generated by the kernel that pre-decoded the whole trace into
// one uop array per memory plane, so it checks any change to how the
// kernel stages its uops against that kernel's outputs. It must not be
// re-pinned by a change that claims bit-identical timing.
const goldenBatchFile = "testdata/golden_batch.json"

// goldenBlockLen is the kernel's block: a quarter chunk.
const goldenBlockLen = trace.ChunkLen / 4

// goldenBatchEntry digests one trace's results.
type goldenBatchEntry struct {
	Name    string `json:"name"`
	Len     int64  `json:"len"`
	Results string `json:"results_sha256"`
}

// goldenBatchLens are the trace lengths each seeded program is cut to:
// one short of, at and one past a block and a chunk, the last block's
// window tail, and a partial third chunk.
var goldenBatchLens = []int64{
	goldenBlockLen - 1, goldenBlockLen, goldenBlockLen + 1, goldenBlockLen + 8,
	trace.ChunkLen - 1, trace.ChunkLen, trace.ChunkLen + 1,
	2*trace.ChunkLen + 7,
}

// truncated returns the first n instructions of tr as a trace of their
// own.
func truncated(tr *trace.Trace, n int64) *trace.Trace {
	return tracetest.Of(tracetest.Records(tr)[:n]...)
}

// straightLineProgram loops six times over a body longer than a block
// that holds no control transfer, so under an event-free plane a
// whole block decomposes without meeting a fetch event. The body is
// mostly independent loads of immediates, so fetch bounds its timing
// and a fetch group split differently shows in the cycle count.
func straightLineProgram() *program.Program {
	p := program.New("straight_line", 64)
	p.Block("entry").Li(1, 6)
	body := p.Block("body")
	for i := 0; i < goldenBlockLen+1500; i++ {
		r := isa.Reg(2 + i%8)
		switch {
		case i%97 == 13:
			body.Mul(r, isa.Reg(2+(i+3)%8), isa.Reg(2+(i+5)%8))
		case i%97 == 50:
			body.Ld(r, 0, int64(i%32))
		case i%11 == 0:
			body.Add(r, isa.Reg(2+(i+3)%8), isa.Reg(2+(i+5)%8))
		default:
			body.Li(r, int64(i))
		}
	}
	body.Addi(1, 1, -1).Bne(1, 0, "body")
	p.Block("exit").Halt()
	return p
}

// edgePlane is a synthetic memory plane: an I-side class on the first
// instructions and the last instruction of every block (so a block can
// open on an I-side miss, and a window's tail holds events), classes
// scattered elsewhere by a hash of the position (including classes
// with a zero refill, which set an event bit but never stall), and
// data-side classes on about one instruction in eight.
func edgePlane(n int64) *trace.BytePlane {
	b := trace.NewBytePlaneBuilder()
	for p := int64(0); p < n; p++ {
		h := uint64(p)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
		h ^= h >> 29
		var v uint8
		switch p % goldenBlockLen {
		case 0, 1, 3, 6, goldenBlockLen - 1:
			v = uint8(1 + (p/goldenBlockLen+p%goldenBlockLen)%7)
		default:
			if h%16 == 0 {
				v = uint8(h>>8) & trace.AnnSideMask
			}
		}
		if (h>>16)%8 == 0 {
			v |= (uint8(h>>24) & trace.AnnSideMask) << trace.AnnDShift
		}
		b.Append(v)
	}
	return b.Plane()
}

// zeroPlane is an event-free memory plane: every access hits.
func zeroPlane(n int64) *trace.BytePlane {
	b := trace.NewBytePlaneBuilder()
	for p := int64(0); p < n; p++ {
		b.Append(0)
	}
	return b.Plane()
}

// onesPlane marks every instruction mispredicted, so every conditional
// branch ends its fetch group.
func onesPlane(n int64) *trace.BitPlane {
	b := trace.NewBitPlaneBuilder()
	for p := int64(0); p < n; p++ {
		b.Append(true)
	}
	return b.Plane()
}

// goldenBatchPoints returns widths 1–8 at depths 1, 6 and 16 over four
// memory planes: the default hierarchy's and a 1 KB direct-mapped
// L1-I's (both with the default predictor's plane), and the synthetic
// edge and event-free planes (with every branch mispredicted).
func goldenBatchPoints(t *testing.T, tr *trace.Trace) []pipeline.BatchPoint {
	t.Helper()
	base := uarch.Default()
	tiny := base
	tiny.Hier.IL1 = cache.Config{Name: "il1", SizeBytes: uarch.KB, Ways: 1, BlockBytes: 64}
	br := branchPlane(tr, base.Predictor)
	ones := onesPlane(tr.Len())
	anns := []struct {
		cfg uarch.Config
		ann pipeline.Annotation
	}{
		{base, pipeline.Annotation{Mem: memAnnotation(t, tr, base).Mem, Br: br}},
		{tiny, pipeline.Annotation{Mem: memAnnotation(t, tr, tiny).Mem, Br: br}},
		{base, pipeline.Annotation{Mem: edgePlane(tr.Len()), Br: ones}},
		{base, pipeline.Annotation{Mem: zeroPlane(tr.Len()), Br: ones}},
	}
	var pts []pipeline.BatchPoint
	for _, a := range anns {
		for w := 1; w <= 8; w++ {
			for _, d := range []int{1, 6, 16} {
				cfg := a.cfg
				cfg.Width, cfg.FrontEndDepth = w, d
				cfg.Name = fmt.Sprintf("w%d-d%d", w, d)
				pts = append(pts, pipeline.BatchPoint{Cfg: cfg, Ann: a.ann})
			}
		}
	}
	return pts
}

// resultsDigest hashes every field of every result, in order.
func resultsDigest(t *testing.T, res []pipeline.Result) string {
	t.Helper()
	h := sha256.New()
	for _, r := range res {
		if err := binary.Write(h, binary.LittleEndian, r); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenBatch replays tr's golden points as one multi-lane batch,
// checks that each point replayed as a one-lane batch gives its lane's
// result, and digests the batch's results.
func goldenBatch(t *testing.T, name string, tr *trace.Trace) goldenBatchEntry {
	t.Helper()
	ctx := context.Background()
	pts := goldenBatchPoints(t, tr)
	batch, err := pipeline.SimulateAnnotatedBatch(ctx, tr, pts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range pts {
		single, err := simulateOne(ctx, tr, pts[i].Cfg, pts[i].Ann)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		diffResults(t, fmt.Sprintf("%s/%d %s one-lane", name, tr.Len(), pts[i].Cfg.Name), batch[i], single)
	}
	return goldenBatchEntry{Name: name, Len: tr.Len(), Results: resultsDigest(t, batch)}
}

// goldenBatchEntries computes the digests of every golden trace: seeded
// random programs cut to each of goldenBatchLens, then the
// straight-line program whole.
func goldenBatchEntries(t *testing.T) []goldenBatchEntry {
	t.Helper()
	longest := goldenBatchLens[len(goldenBatchLens)-1]
	var out []goldenBatchEntry
	for _, seed := range []int64{3, 7, 12} {
		pw, err := harness.ProfileProgramScaledCtx(context.Background(), randprog.Generate(randprog.Default(seed)), longest)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range goldenBatchLens {
			out = append(out, goldenBatch(t, fmt.Sprintf("randprog-%d", seed), truncated(pw.Trace, n)))
		}
	}
	pw, err := harness.ProfileProgram(straightLineProgram())
	if err != nil {
		t.Fatal(err)
	}
	return append(out, goldenBatch(t, "straight_line", pw.Trace))
}

// TestBatchGolden checks the batch kernel's results on the golden
// traces against the committed digests.
func TestBatchGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenBatchFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenBatchEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenBatchEntries(t)
	if len(got) != len(want) {
		t.Fatalf("%s has %d entries, the test computes %d", goldenBatchFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("entry %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
