package profile

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/funcsim"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workloads"
)

// Of profiles a finished trace in one pass: every chunk through one
// Profiler, as if the chunks had been handed over while it was
// recorded.
func Of(name string, tr *trace.Trace) *Profile {
	p := new(Profiler)
	chunks := tr.Chunks()
	for i := range chunks {
		p.Add(&chunks[i])
	}
	return p.Finish(name, tr.Dictionary())
}

// reference is the per-record profiler that the column pass replaced,
// kept as its oracle: it walks the materialized records one by one, tracking each
// register's most recent writer by sequence number and attributing a
// consumer to its nearest producer (on equal distances, loads over
// long-latency ops over unit-latency ops).
func reference(name string, tr *trace.Trace) *Profile {
	p := &Profile{Name: name}
	var lastWriter [isa.NumRegs]int64
	var writerKind [isa.NumRegs]producerKind
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	priority := func(k producerKind) int {
		switch k {
		case prodLoad:
			return 2
		case prodLL:
			return 1
		}
		return 0
	}
	for _, d := range tracetest.Records(tr) {
		p.N++
		p.ByClass[d.Class]++
		p.ByOp[d.Op]++
		switch d.Class {
		case isa.ClassMul:
			p.NMul++
		case isa.ClassDiv:
			p.NDiv++
		case isa.ClassLoad:
			p.NLoad++
		case isa.ClassStore:
			p.NStore++
		case isa.ClassBranch:
			p.NBranch++
			if d.Taken {
				p.NTaken++
			}
		case isa.ClassJump:
			p.NJump++
		}

		if d.NumSrc > 0 {
			bestDist := int64(-1)
			bestKind := prodUnit
			for i := 0; i < d.NumSrc; i++ {
				r := d.Src[i]
				w := lastWriter[r]
				if w < 0 {
					continue
				}
				dist := d.Seq - w
				if bestDist < 0 || dist < bestDist ||
					(dist == bestDist && priority(writerKind[r]) > priority(bestKind)) {
					bestDist = dist
					bestKind = writerKind[r]
				}
			}
			if bestDist >= 1 && bestDist <= MaxDepDist {
				switch bestKind {
				case prodLoad:
					p.DepsLd.Count[bestDist]++
				case prodLL:
					p.DepsLL.Count[bestDist]++
				default:
					p.DepsUnit.Count[bestDist]++
				}
			}
		}

		if d.HasDst {
			lastWriter[d.Dst] = d.Seq
			switch d.Class {
			case isa.ClassMul, isa.ClassDiv:
				writerKind[d.Dst] = prodLL
			case isa.ClassLoad:
				writerKind[d.Dst] = prodLoad
			default:
				writerKind[d.Dst] = prodUnit
			}
		}
	}
	return p
}

// Reference is reference, for the external fuzz target.
var Reference = reference

// checkOf profiles tr with Of and fails t unless the reference agrees.
func checkOf(t *testing.T, name string, tr *trace.Trace) *Profile {
	t.Helper()
	got, want := Of(name, tr), reference(name, tr)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Of and the reference profiler disagree:\n got  %+v\n want %+v", name, got, want)
	}
	return got
}

// feed profiles hand-built dynamic instructions.
func feed(t *testing.T, ds []tracetest.Inst) *Profile {
	t.Helper()
	return checkOf(t, "t", tracetest.Of(ds...))
}

// recordRuns executes p runs times into one trace, resetting the
// machine in between, and returns the trace and each run's length.
func recordRuns(t *testing.T, p *program.Program, runs int) (*trace.Trace, []int64) {
	t.Helper()
	m, err := funcsim.New(p)
	if err != nil {
		t.Fatal(err)
	}
	tb := trace.NewBuilder()
	lens := make([]int64, runs)
	for r := range lens {
		if r > 0 {
			m.Reset()
		}
		if lens[r], err = m.RunCtx(context.Background(), tb); err != nil {
			t.Fatal(err)
		}
	}
	return tb.Trace(), lens
}

// TestOfMatchesReference is the differential test of Of against the
// per-record reference on every named workload and on seeded generated
// programs, recorded once and three times over (the scaling floor's
// concatenated runs).
func TestOfMatchesReference(t *testing.T) {
	for _, s := range workloads.All() {
		tr, _ := recordRuns(t, s.Build(), 1)
		checkOf(t, s.Name, tr)
	}
	for seed := int64(1); seed <= 8; seed++ {
		p := randprog.Generate(randprog.Default(seed))
		tr, _ := recordRuns(t, p, 3)
		checkOf(t, p.Name, tr)
	}
}

// FuzzProfile generates a program from the fuzzed configuration,
// records it one to three times into one trace and checks that Of
// agrees with the reference, and that within each run every record's
// NextPC is the next record's PC and the last one's is the HALT.
func FuzzProfile(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(12), uint8(5), uint8(0), uint8(0))
	f.Add(int64(7), uint8(0), uint8(1), uint8(1), uint8(2), uint8(1))
	f.Add(int64(-3), uint8(9), uint8(30), uint8(19), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, blocks, insts, trips, runs, mem uint8) {
		cfg := randprog.Config{
			Seed:       seed,
			MaxBlocks:  int(blocks % 10),
			MaxInsts:   1 + int(insts%24),
			OuterTrips: 1 + int64(trips%20),
			MemWords:   64 << (mem % 4),
		}
		p := randprog.Generate(cfg)
		ins, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		tr, lens := recordRuns(t, p, 1+int(runs%3))
		checkOf(t, fmt.Sprintf("fuzz-%d", seed), tr)
		recs := tracetest.Records(tr)
		var start int64
		for _, n := range lens {
			for i := start; i < start+n; i++ {
				next := recs[i].NextPC
				if i+1 < start+n {
					if pc := recs[i+1].PC; next != pc {
						t.Fatalf("record %d: NextPC %d, next record's PC %d", i, next, pc)
					}
				} else if ins[next].Op != isa.HALT {
					t.Fatalf("run ends at record %d with NextPC %d, not a HALT", i, next)
				}
			}
			start += n
		}
	})
}

func alu(dst isa.Reg, srcs ...isa.Reg) tracetest.Inst {
	d := tracetest.Inst{Op: isa.ADD, Class: isa.ClassALU, Dst: dst, HasDst: dst != 0}
	for i, s := range srcs {
		if i < 2 {
			d.Src[i] = s
			d.NumSrc++
		}
	}
	return d
}

func TestDependencyDistance(t *testing.T) {
	// r1 written at seq 0; consumed at seq 3 -> deps_unit(3)++.
	p := feed(t, []tracetest.Inst{
		alu(1),
		alu(2),
		alu(3),
		alu(4, 1),
	})
	if p.DepsUnit.Count[3] != 1 {
		t.Errorf("deps_unit(3) = %d, want 1", p.DepsUnit.Count[3])
	}
	if p.DepsUnit.Total() != 1 {
		t.Errorf("total unit deps = %d, want 1", p.DepsUnit.Total())
	}
}

func TestNearestProducerWins(t *testing.T) {
	// Consumer reads r1 (written at 0) and r2 (written at 2):
	// shortest distance is 1 (to r2).
	p := feed(t, []tracetest.Inst{
		alu(1),
		alu(9),
		alu(2),
		alu(4, 1, 2),
	})
	if p.DepsUnit.Count[1] != 1 || p.DepsUnit.Count[3] != 0 {
		t.Errorf("deps = %v, want only d=1", p.DepsUnit.Count[:5])
	}
}

func TestProducerKindClassification(t *testing.T) {
	mul := tracetest.Inst{Op: isa.MUL, Class: isa.ClassMul, Dst: 2, HasDst: true}
	ld := tracetest.Inst{Op: isa.LD, Class: isa.ClassLoad, Dst: 3, HasDst: true, IsLoad: true}
	p := feed(t, []tracetest.Inst{
		mul,       // writes r2
		alu(4, 2), // dep on mul at d=1
		ld,        // writes r3
		alu(5, 3), // dep on load at d=1
		alu(6),    // writes r6
		alu(7, 6), // dep on unit at d=1
	})
	if p.DepsLL.Count[1] != 1 {
		t.Errorf("deps_LL(1) = %d, want 1", p.DepsLL.Count[1])
	}
	if p.DepsLd.Count[1] != 1 {
		t.Errorf("deps_ld(1) = %d, want 1", p.DepsLd.Count[1])
	}
	if p.DepsUnit.Count[1] != 1 {
		t.Errorf("deps_unit(1) = %d, want 1", p.DepsUnit.Count[1])
	}
}

func TestTieBreakPrefersLoad(t *testing.T) {
	// Both producers at distance 2 and 1... craft equal distances:
	// load writes r1 at seq 0, unit writes r2 at seq 0? Two writers
	// cannot share a seq; instead both at distance 1 via two sources
	// written at the same earlier instruction is impossible, so use
	// distance 2 for both: load at 0, unit at... distances must be
	// equal: producers at seq 0 (load, r1) and seq 0 is taken; use
	// seq 1 (unit, r2) and consumer at 2 reading r1 (d=2) and r2 (d=1):
	// nearest is unit. For a true tie, read r1 and r3 both written at
	// seq 1 — only one instruction writes per cycle, so a tie can only
	// happen with a single producer instruction; then kind priority is
	// moot. Verify instead that equal-distance multi-source tie keeps
	// one dependency only.
	ld := tracetest.Inst{Op: isa.LD, Class: isa.ClassLoad, Dst: 1, HasDst: true, IsLoad: true}
	p := feed(t, []tracetest.Inst{
		ld,
		alu(9, 1, 1), // both sources are r1: one dep at d=1, kind load
	})
	if p.DepsLd.Count[1] != 1 || p.DepsLd.Total() != 1 {
		t.Errorf("deps_ld = %v", p.DepsLd.Count[:3])
	}
	if p.DepsUnit.Total() != 0 {
		t.Errorf("unexpected unit deps: %d", p.DepsUnit.Total())
	}
}

func TestOverwriteBreaksDependency(t *testing.T) {
	// r1 written at 0, overwritten at 1 by an instruction with no
	// sources; consumer at 2 depends on the newer write (d=1).
	p := feed(t, []tracetest.Inst{
		alu(1),
		alu(1),
		alu(2, 1),
	})
	if p.DepsUnit.Count[1] != 1 || p.DepsUnit.Count[2] != 0 {
		t.Errorf("deps = %v, want d=1 only", p.DepsUnit.Count[:4])
	}
}

func TestClassCountsAndBranchStats(t *testing.T) {
	br := func(taken bool) tracetest.Inst {
		return tracetest.Inst{Op: isa.BEQ, Class: isa.ClassBranch, IsBranch: true, Taken: taken}
	}
	jmp := tracetest.Inst{Op: isa.JMP, Class: isa.ClassJump, IsJump: true, Taken: true}
	st := tracetest.Inst{Op: isa.ST, Class: isa.ClassStore, IsStore: true}
	div := tracetest.Inst{Op: isa.DIV, Class: isa.ClassDiv, Dst: 1, HasDst: true}
	p := feed(t, []tracetest.Inst{br(true), br(false), br(true), jmp, st, div})
	if p.NBranch != 3 || p.NTaken != 2 || p.NJump != 1 || p.NStore != 1 || p.NDiv != 1 {
		t.Errorf("counts: %+v", p)
	}
	if p.N != 6 {
		t.Errorf("N = %d, want 6", p.N)
	}
	if p.Mix(isa.ClassBranch) != 0.5 {
		t.Errorf("branch mix = %f, want 0.5", p.Mix(isa.ClassBranch))
	}
}

func TestDepProfileHelpers(t *testing.T) {
	var dp DepProfile
	dp.Count[1] = 3
	dp.Count[4] = 1
	if dp.Total() != 4 {
		t.Errorf("Total = %d", dp.Total())
	}
	if dp.UpTo(3) != 3 {
		t.Errorf("UpTo(3) = %d", dp.UpTo(3))
	}
	if dp.UpTo(1000) != 4 {
		t.Errorf("UpTo(1000) = %d", dp.UpTo(1000))
	}
	want := (3.0*1 + 1.0*4) / 4.0
	if dp.Mean() != want {
		t.Errorf("Mean = %f, want %f", dp.Mean(), want)
	}
	var empty DepProfile
	if empty.Mean() != 0 {
		t.Errorf("empty Mean = %f", empty.Mean())
	}
}

func TestDepTotalsNeverExceedN(t *testing.T) {
	// Property: however the stream looks, the number of recorded
	// dependencies cannot exceed the number of instructions.
	f := func(ops []uint8) bool {
		ds := make([]tracetest.Inst, len(ops))
		for i, o := range ops {
			d := tracetest.Inst{Op: isa.ADD, Class: isa.ClassALU}
			d.Dst = isa.Reg(o % 8)
			d.HasDst = d.Dst != 0
			d.Src[0] = isa.Reg((o >> 3) % 8)
			if d.Src[0] != 0 {
				d.NumSrc = 1
			}
			ds[i] = d
		}
		tr := tracetest.Of(ds...)
		p := Of("q", tr)
		deps := p.DepsUnit.Total() + p.DepsLL.Total() + p.DepsLd.Total()
		return deps <= p.N && p.N == int64(len(ops)) && reflect.DeepEqual(p, reference("q", tr))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileString(t *testing.T) {
	p := feed(t, []tracetest.Inst{alu(1)})
	if p.String() == "" {
		t.Error("empty String()")
	}
}
