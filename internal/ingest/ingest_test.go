package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/funcsim"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// goodSrc is a small well-behaved program: sums 0..9 into memory.
const goodSrc = `
.mem 64
main:
  li   r1, 0
  li   r2, 10
  li   r3, 0
loop:
  add  r3, r3, r1
  addi r1, r1, 1
  blt  r1, r2, loop
end:
  st   r3, 0x10(r0)
  halt
`

// spinSrc never terminates: the sandbox must stop it, not the OS.
const spinSrc = `
.mem 8
main:
  li r1, 0
loop:
  addi r1, r1, 1
  jmp loop
`

// oobSrc stores far outside its declared memory.
const oobSrc = `
.mem 8
main:
  li r1, 7
  st r1, 4096(r0)
  halt
`

func TestParseGood(t *testing.T) {
	p, err := Parse(goodSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != canonicalName {
		t.Fatalf("parsed name %q, want %q", p.Name, canonicalName)
	}
	name := WorkloadName(p.Fingerprint())
	if !strings.HasPrefix(name, "user-") || len(name) != len("user-")+workloadNameHexLen {
		t.Fatalf("workload name %q has the wrong shape", name)
	}
}

// TestParseContentAddressing: the same program text always lands on the
// same name, and the canonical (disassembled) form re-parses to the
// same fingerprint — the identity the registry persists under.
func TestParseContentAddressing(t *testing.T) {
	p1, err := Parse(goodSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Parse(goodSrc+"\n; a comment changes nothing\n", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("comment changed the fingerprint")
	}
	back, err := Parse(asm.Disassemble(p1), Limits{})
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if back.Fingerprint() != p1.Fingerprint() {
		t.Fatal("canonical round trip changed the fingerprint")
	}
}

func TestParseRejections(t *testing.T) {
	lim := Limits{MaxSourceBytes: 1 << 12, MaxBlocks: 4, MaxInsts: 8, MaxDataEntries: 2, MaxMemWords: 64}
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"oversized source", strings.Repeat(";x\n", 1<<12), ErrTooLarge},
		{"empty source", "", ErrInvalid},
		{"garbage", "this is not assembly", ErrInvalid},
		{"no memory", "main:\n halt\n", ErrInvalid},
		{"too many blocks", ".mem 8\na:\n halt\nb:\n halt\nc:\n halt\nd:\n halt\ne:\n halt\n", ErrInvalid},
		{"too many insts", ".mem 8\nmain:\n" + strings.Repeat(" addi r1, r1, 1\n", 9) + " halt\n", ErrInvalid},
		{"too much data", ".mem 8\n.data 0 1\n.data 1 1\n.data 2 1\n main:\n halt\n", ErrInvalid},
		{"memory bomb", ".mem 1048576\nmain:\n halt\n", ErrInvalid},
		{"data outside memory", ".mem 8\n.data 63 1\n.data 100 1\nmain:\n halt\n", ErrInvalid},
	}
	for _, c := range cases {
		_, err := Parse(c.src, lim)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}
}

// TestParseGiantMemClaimNoAlloc: a .mem claim beyond any limit must be
// rejected by arithmetic, not by attempting the allocation.
func TestParseGiantMemClaimNoAlloc(t *testing.T) {
	_, err := Parse(".mem 1099511627776\nmain:\n halt\n", Limits{})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("terabyte .mem claim: %v, want ErrInvalid", err)
	}
}

// TestCheckProgramTupleCap checks both sides of the dictionary bound:
// static instructions plus conditional branches may reach
// trace.MaxTuples but not pass it, even within the instruction cap.
func TestCheckProgramTupleCap(t *testing.T) {
	// alu ALU instructions, one conditional branch (two tuples) and a
	// HALT: alu+3 tuples at most.
	build := func(alu int) *program.Program {
		p := program.New("t", 8)
		b := p.Block("main")
		for i := 0; i < alu; i++ {
			b.Addi(1, 1, 1)
		}
		b.Beq(1, 0, "main").Halt()
		return p
	}
	at := build(trace.MaxTuples - 3)
	if err := CheckProgram(at, Limits{}); err != nil {
		t.Fatalf("program at the tuple cap rejected: %v", err)
	}
	over := build(trace.MaxTuples - 2)
	if over.StaticLen() > DefaultLimits().MaxInsts {
		t.Fatalf("%d static instructions: the case must stay within the instruction cap", over.StaticLen())
	}
	if err := CheckProgram(over, Limits{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("program one tuple over the cap: err = %v, want ErrInvalid", err)
	}
}

func TestCheckProgramBuiltinsPass(t *testing.T) {
	// The default posture is sized for real kernels: most of the
	// compiled-in suite must clear it as-is. The handful of large-
	// footprint benchmarks (mcf_like-class data arrays) legitimately
	// exceed the conservative ingestion defaults — deliberate posture,
	// not a bug — so they are skipped and counted.
	lim := DefaultLimits()
	passed, skipped := 0, 0
	for _, spec := range workloads.All() {
		p := spec.Build()
		if p.MemWords > lim.MaxMemWords || p.Data.Len() > lim.MaxDataEntries {
			skipped++
			continue
		}
		if err := CheckProgram(p, lim); err != nil {
			t.Errorf("built-in %s rejected by default limits: %v", spec.Name, err)
			continue
		}
		passed++
	}
	if passed < 10 {
		t.Fatalf("only %d built-ins clear the default limits (%d skipped as oversized) — defaults are too tight", passed, skipped)
	}
}

func TestProfileGood(t *testing.T) {
	p, err := Parse(goodSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := Profile(context.Background(), p, 0, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if pw.Prof.N == 0 {
		t.Fatal("profiled zero instructions")
	}
}

func TestProfileInstructionBudget(t *testing.T) {
	p, err := Parse(spinSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Profile(context.Background(), p, 0, Limits{MaxDynInsts: 10_000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("infinite loop: %v, want ErrBudget", err)
	}
	if !errors.Is(err, funcsim.ErrMaxInstructions) {
		t.Fatalf("budget error should carry the funcsim cause, got %v", err)
	}
}

func TestProfileWallClockBudget(t *testing.T) {
	p, err := Parse(spinSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// A huge instruction budget with a tiny deadline: only the clock
	// can stop it.
	start := time.Now()
	_, err = Profile(context.Background(), p, 0, Limits{MaxDynInsts: 1 << 40, MaxRunTime: 50 * time.Millisecond})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("spin under deadline: %v, want ErrBudget", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
}

func TestProfileRuntimeFault(t *testing.T) {
	p, err := Parse(oobSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Profile(context.Background(), p, 0, Limits{})
	if !errors.Is(err, ErrRuntime) {
		t.Fatalf("out-of-bounds store: %v, want ErrRuntime", err)
	}
	if !errors.Is(err, funcsim.ErrMemFault) {
		t.Fatalf("fault error should carry the funcsim cause, got %v", err)
	}
}

// TestProfileCallerContextWins: when the request's own context dies,
// Profile reports that (for the lifecycle taxonomy), not a budget
// verdict.
func TestProfileCallerContextWins(t *testing.T) {
	p, err := Parse(spinSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err = Profile(ctx, p, 0, Limits{MaxDynInsts: 1 << 40})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrBudget) {
		t.Fatal("caller cancellation misfiled as a budget verdict")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(goodSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	canon := asm.Disassemble(p)
	e, created := reg.Add(p, canon)
	if !created || !e.Stored {
		t.Fatalf("first Add: created=%v stored=%v, want true/true", created, e.Stored)
	}
	if _, again := reg.Add(p, canon); again {
		t.Fatal("second Add reported created")
	}
	if reg.Len() != 1 {
		t.Fatalf("registry holds %d entries, want 1", reg.Len())
	}

	// A fresh open must restore the same entry under the same name.
	reg2, err := OpenRegistry(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := reg2.Lookup(e.Name)
	if !ok {
		t.Fatalf("reopened registry lost %s", e.Name)
	}
	if got.Fingerprint != e.Fingerprint {
		t.Fatal("reopened entry changed fingerprint")
	}
	if got.Source != canon {
		t.Fatal("reopened entry changed source")
	}
}

// TestRegistrySkipsTamperedFiles: corrupt or renamed files are counted
// and dropped, never served.
func TestRegistrySkipsTamperedFiles(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(goodSrc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Add(p, asm.Disassemble(p))

	// Corrupt file, valid name shape.
	if err := os.WriteFile(filepath.Join(dir, "user-000000000000"+SourceExt), []byte("not a program"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid program under a name that does not match its content.
	if err := os.WriteFile(filepath.Join(dir, "user-ffffffffffff"+SourceExt), []byte(e.Source), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(dir, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != 1 {
		t.Fatalf("tampered registry served %d entries, want 1", reg2.Len())
	}
	if _, ok := reg2.Lookup(e.Name); !ok {
		t.Fatal("legitimate entry lost")
	}
	if n := reg2.LoadErrors(); n != 2 {
		t.Fatalf("load errors = %d, want 2", n)
	}
}

func TestQuotaInFlight(t *testing.T) {
	q := NewQuotas(QuotaConfig{MaxInFlight: 1})
	rel, err := q.Begin("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Begin("a"); !errors.Is(err, ErrQuota) {
		t.Fatalf("second in-flight job: %v, want ErrQuota", err)
	}
	// Another tenant is unaffected.
	rel2, err := q.Begin("b")
	if err != nil {
		t.Fatalf("tenant b blocked by tenant a: %v", err)
	}
	rel2()
	rel()
	rel() // double release must not underflow
	if _, err := q.Begin("a"); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	if q.Stats().Rejections != 1 {
		t.Fatalf("rejections = %d, want 1", q.Stats().Rejections)
	}
}

func TestQuotaStorage(t *testing.T) {
	q := NewQuotas(QuotaConfig{MaxWorkloads: 2, MaxSourceBytes: 100})
	if ch, err := q.Charge("a", "w1", 60); err != nil || !ch {
		t.Fatalf("first charge: %v/%v", ch, err)
	}
	// Idempotent: same workload again is free.
	if ch, err := q.Charge("a", "w1", 60); err != nil || ch {
		t.Fatalf("duplicate charge: charged=%v err=%v, want false/nil", ch, err)
	}
	// Byte cap.
	if _, err := q.Charge("a", "w2", 60); !errors.Is(err, ErrQuota) {
		t.Fatalf("byte overflow: %v, want ErrQuota", err)
	}
	// Refund frees the bytes.
	q.Refund("a", "w1")
	if ch, err := q.Charge("a", "w2", 60); err != nil || !ch {
		t.Fatalf("charge after refund: %v/%v", ch, err)
	}
	// Workload-count cap.
	if ch, err := q.Charge("a", "w3", 1); err != nil || !ch {
		t.Fatalf("second workload: %v/%v", ch, err)
	}
	if _, err := q.Charge("a", "w4", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("third workload: %v, want ErrQuota", err)
	}
	// Tenants are independent ledgers.
	if ch, err := q.Charge("b", "w4", 1); err != nil || !ch {
		t.Fatalf("tenant b blocked: %v/%v", ch, err)
	}
	st := q.Stats()
	if st.Tenants != 2 || st.StoredWorkloads != 3 {
		t.Fatalf("stats = %+v, want 2 tenants / 3 workloads", st)
	}
}

func TestQuotaTenantCap(t *testing.T) {
	q := NewQuotas(QuotaConfig{MaxTenants: 2})
	for _, tn := range []string{"a", "b"} {
		rel, err := q.Begin(tn)
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if _, err := q.Begin("c"); !errors.Is(err, ErrQuota) {
		t.Fatalf("third tenant: %v, want ErrQuota", err)
	}
}

func TestCleanTenant(t *testing.T) {
	if tn, err := CleanTenant(""); err != nil || tn != DefaultTenant {
		t.Fatalf("empty tenant: %q/%v", tn, err)
	}
	if tn, err := CleanTenant("team-a"); err != nil || tn != "team-a" {
		t.Fatalf("named tenant: %q/%v", tn, err)
	}
	if _, err := CleanTenant(strings.Repeat("x", MaxTenantName+1)); !errors.Is(err, ErrInvalid) {
		t.Fatalf("overlong tenant: %v, want ErrInvalid", err)
	}
}

// outOfRangeSrc initializes words 10..17 of a 4-word memory.
const outOfRangeSrc = ".mem 4\n.data 10 1 2 3 4 5 6 7 8\nmain:\n halt\n"

// TestDataRangeRejectionDeterministic: every validator names the
// lowest out-of-range data address, so rejecting the same program
// again always gives the same message.
func TestDataRangeRejectionDeterministic(t *testing.T) {
	p := program.New("t", 4)
	p.SetDataSlice(10, []int64{1, 2, 3, 4, 5, 6, 7, 8})
	p.SetData(2, 9)
	p.Block("main").Halt()
	checks := map[string]func() error{
		"Parse": func() error {
			_, err := Parse(outOfRangeSrc, Limits{})
			return err
		},
		"CheckProgram": func() error { return CheckProgram(p, Limits{}) },
		"Build": func() error {
			_, err := p.Build()
			return err
		},
		"funcsim.New": func() error {
			_, err := funcsim.New(p)
			return err
		},
	}
	for name, check := range checks {
		msgs := map[string]bool{}
		for range 200 {
			if err := check(); err != nil {
				msgs[err.Error()] = true
			}
		}
		if len(msgs) != 1 {
			t.Errorf("%s: %d distinct rejections, want 1: %v", name, len(msgs), msgs)
			continue
		}
		for msg := range msgs {
			if !strings.Contains(msg, "address 10 ") {
				t.Errorf("%s: %q does not name the lowest out-of-range address, 10", name, msg)
			}
		}
	}
}
