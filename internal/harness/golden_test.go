package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/program"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

// goldenFile pins the recorded trace encoding, the profile and the
// program fingerprint of every named workload and a set of seeded
// generated programs. It was generated by the record path that
// streamed one DynInst per instruction through a Consumer, before that
// path was replaced, so it is an oracle independent of the current
// recorder and profiler.
const goldenFile = "testdata/golden_profiles.json"

// goldenEntry is one program's digests.
type goldenEntry struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	N           int64  `json:"n"`
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
// through Default(105) scaled to goldenFloor, and one generated program
// profiled through the sandboxed entry point.
func goldenCorpus() []goldenCase {
	var out []goldenCase
	for _, s := range workloads.All() {
		out = append(out, goldenCase{s.Name, s.Build, ProfileProgram})
	}
	scaled := func(p *program.Program) (*Profiled, error) { return ProfileProgramScaled(p, goldenFloor) }
	for seed := int64(100); seed <= 105; seed++ {
		c := randprog.Default(seed)
		out = append(out, goldenCase{fmt.Sprintf("rand-%d", seed), func() *program.Program { return randprog.Generate(c) }, scaled})
	}
	c := randprog.Default(106)
	out = append(out, goldenCase{"sandboxed/rand-106", func() *program.Program { return randprog.Generate(c) },
		func(p *program.Program) (*Profiled, error) {
			return ProfileProgramSandboxedCtx(context.Background(), p, goldenFloor, 4*goldenFloor)
		}})
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
		Trace:       hex.EncodeToString(th.Sum(nil)),
		Profile:     hex.EncodeToString(ph[:]),
	}
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
