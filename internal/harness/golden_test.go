package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/workloads"
)

// goldenFile pins the recorded trace encoding, the profile and the
// program fingerprint of every named workload and a set of seeded
// generated programs. It was generated by the record path that
// streamed one record per instruction to a per-record consumer, before
// that path was replaced, so it is an oracle independent of the current
// recorder and profiler. A change of the trace format re-pins only
// trace_sha256: the record digest, the profile, the fingerprint and
// the length pin the content and must not move.
const goldenFile = "testdata/golden_profiles.json"

// goldenEntry is one program's digests.
type goldenEntry struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	N           int64  `json:"n"`
	Records     string `json:"records_sha256"` // SHA-256 of the replayed records (recordsDigest)
	Trace       string `json:"trace_sha256"`   // SHA-256 of Trace.WriteTo
	Profile     string `json:"profile_sha256"` // SHA-256 of the profile's JSON encoding
}

// goldenFloor is the dynamic-instruction floor of the generated
// programs, as in the benchmark's generated suite.
const goldenFloor = 200_000

// goldenCase is one program of the golden corpus and how it is
// profiled.
type goldenCase struct {
	name    string
	build   func() *program.Program
	profile func(*program.Program) (*Profiled, error)
}

// goldenCorpus returns the 30 named workloads, randprog.Default(100)
// through Default(105) scaled to goldenFloor, one generated program
// profiled through the sandboxed entry point, and one larger generated
// program, rand-wide, whose 277 tuples take its dictionary past 256
// entries: its 257th tuple is first interned at instruction 976, in
// the middle of the first chunk.
func goldenCorpus() []goldenCase {
	var out []goldenCase
	for _, s := range workloads.All() {
		out = append(out, goldenCase{s.Name, s.Build, ProfileProgram})
	}
	scaled := func(p *program.Program) (*Profiled, error) {
		return ProfileProgramScaledCtx(context.Background(), p, goldenFloor)
	}
	for seed := int64(100); seed <= 105; seed++ {
		c := randprog.Default(seed)
		out = append(out, goldenCase{fmt.Sprintf("rand-%d", seed), func() *program.Program { return randprog.Generate(c) }, scaled})
	}
	c := randprog.Default(106)
	out = append(out, goldenCase{"sandboxed/rand-106", func() *program.Program { return randprog.Generate(c) },
		func(p *program.Program) (*Profiled, error) {
			return ProfileProgramSandboxedCtx(context.Background(), p, goldenFloor, 4*goldenFloor)
		}})
	wide := randprog.Config{Seed: 202, MaxBlocks: 20, MaxInsts: 24, OuterTrips: 50, MemWords: 1 << 12}
	out = append(out, goldenCase{"rand-wide", func() *program.Program { return randprog.Generate(wide) }, scaled})
	return out
}

// goldenDigest profiles c and digests the result.
func goldenDigest(t *testing.T, c goldenCase) goldenEntry {
	t.Helper()
	p := c.build()
	pw, err := c.profile(p)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	th := sha256.New()
	if _, err := pw.Trace.WriteTo(th); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(pw.Prof)
	if err != nil {
		t.Fatal(err)
	}
	ph := sha256.Sum256(js)
	return goldenEntry{
		Name:        c.name,
		Fingerprint: p.Fingerprint(),
		N:           pw.Trace.Len(),
		Records:     recordsDigest(pw.Trace),
		Trace:       hex.EncodeToString(th.Sum(nil)),
		Profile:     hex.EncodeToString(ph[:]),
	}
}

// recordsDigest hashes every field of every record of tr
// (tracetest.Each), in order and in a fixed little-endian layout. It depends only on the
// instruction stream, not on how the trace store encodes it, so it
// holds across changes of the trace format.
func recordsDigest(tr *trace.Trace) string {
	h := sha256.New()
	var buf []byte
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	tracetest.Each(tr, func(d *tracetest.Inst) {
		buf = buf[:0]
		for _, v := range []uint64{
			uint64(d.Seq), uint64(d.PC), uint64(d.Op), uint64(d.Class),
			uint64(d.Dst), b(d.HasDst), uint64(d.Src[0]), uint64(d.Src[1]), uint64(d.NumSrc),
			uint64(d.EffAddr), b(d.Taken), uint64(d.Target), uint64(d.NextPC),
			b(d.IsLoad), b(d.IsStore), b(d.IsBranch), b(d.IsJump),
		} {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenProfiles records and profiles the golden corpus and checks
// every trace encoding, profile and fingerprint against the committed
// digests.
func TestGoldenProfiles(t *testing.T) {
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%s has %d entries, corpus has %d programs", goldenFile, len(want), len(corpus))
	}
	for i, c := range corpus {
		if got := goldenDigest(t, c); got != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, want[i])
		}
	}
}
