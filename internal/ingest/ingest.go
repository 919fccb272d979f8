// Package ingest is the hardened path from untrusted program text to a
// profiled, predict/explore-able workload. It is the multi-tenant
// counterpart of the compiled-in workload suite: anyone may POST an
// internal/asm source to modeld, but everything that source can touch
// is walled off first —
//
//   - static limits (source bytes, block/instruction counts, data
//     words, memory size) reject oversized submissions before any
//     allocation proportional to their claims happens;
//   - profiling runs inside a sandbox (hard dynamic-instruction cap,
//     wall-clock deadline polled at chunk granularity, panic
//     containment), so a hostile program can fail only itself;
//   - accepted programs are canonicalized and registered under a
//     content-derived name ("user-" + fingerprint prefix), so
//     identical programs from different tenants share one artifact;
//   - per-tenant quotas (stored workloads, stored bytes, in-flight
//     jobs) bound what any one submitter can consume.
//
// The package deliberately owns no HTTP: internal/service mounts it.
package ingest

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/trace"
)

// Taxonomy sentinels. The service maps each to a machine-readable
// error code, so every hostile shape yields a typed rejection instead
// of a stringly 500.
var (
	// ErrTooLarge: the source text itself is over the byte cap.
	ErrTooLarge = errors.New("ingest: source too large")
	// ErrInvalid: the source parsed poorly or violated a structural
	// limit (blocks, instructions, data words, memory size).
	ErrInvalid = errors.New("ingest: invalid program")
	// ErrBudget: the program is statically fine but blew its dynamic
	// execution budget (instruction cap or wall-clock deadline).
	ErrBudget = errors.New("ingest: execution budget exceeded")
	// ErrRuntime: the program faulted while executing (out-of-bounds
	// access, control flow escaping the text, zero retired
	// instructions, a recovered panic).
	ErrRuntime = errors.New("ingest: program failed to execute")
)

// Limits bounds one submission. Zero fields take DefaultLimits values;
// explicit negatives are rejected at validation time, never treated as
// unlimited — the ingestion path has no unlimited mode.
type Limits struct {
	MaxSourceBytes int           // assembly text size
	MaxBlocks      int           // labeled basic blocks
	MaxInsts       int           // static instructions
	MaxDataEntries int           // distinct initialized data words
	MaxMemWords    int64         // data memory size in words
	MaxDynInsts    int64         // dynamic instructions across profiling runs
	MaxRunTime     time.Duration // wall-clock profiling deadline
}

// DefaultLimits is the shipped posture: generous for real kernels (the
// built-in suite fits with an order of magnitude to spare), hostile to
// resource bombs.
func DefaultLimits() Limits {
	return Limits{
		MaxSourceBytes: 1 << 20,          // 1 MiB of text
		MaxBlocks:      4096,             //
		MaxInsts:       1 << 16,          // 65536 static instructions
		MaxDataEntries: 1 << 16,          // 512 KiB of initialized data
		MaxMemWords:    1 << 21,          // 16 MiB data memory
		MaxDynInsts:    64 << 20,         // ~67M dynamic instructions
		MaxRunTime:     10 * time.Second, //
	}
}

// WithDefaults fills zero fields from DefaultLimits.
func (l Limits) WithDefaults() Limits {
	d := DefaultLimits()
	if l.MaxSourceBytes == 0 {
		l.MaxSourceBytes = d.MaxSourceBytes
	}
	if l.MaxBlocks == 0 {
		l.MaxBlocks = d.MaxBlocks
	}
	if l.MaxInsts == 0 {
		l.MaxInsts = d.MaxInsts
	}
	if l.MaxDataEntries == 0 {
		l.MaxDataEntries = d.MaxDataEntries
	}
	if l.MaxMemWords == 0 {
		l.MaxMemWords = d.MaxMemWords
	}
	if l.MaxDynInsts == 0 {
		l.MaxDynInsts = d.MaxDynInsts
	}
	if l.MaxRunTime == 0 {
		l.MaxRunTime = d.MaxRunTime
	}
	return l
}

// asmLimits projects the static subset onto the assembler's limits.
func (l Limits) asmLimits() asm.Limits {
	return asm.Limits{
		MaxSourceBytes: l.MaxSourceBytes,
		MaxBlocks:      l.MaxBlocks,
		MaxInsts:       l.MaxInsts,
		MaxDataEntries: l.MaxDataEntries,
		MaxMemWords:    l.MaxMemWords,
	}
}

// canonicalName is the program.Name every submission is assembled
// under. Fingerprints hash the name, so normalizing it makes the
// fingerprint purely content-derived: the same source from any tenant,
// under any label, lands on the same artifact key.
const canonicalName = "user"

// workloadNameHexLen is how much of the fingerprint the public
// workload name carries — enough that collisions are as unlikely as
// anyone needs, short enough to type.
const workloadNameHexLen = 12

// WorkloadName derives the public, content-addressed workload name
// from a program fingerprint.
func WorkloadName(fingerprint string) string {
	if len(fingerprint) > workloadNameHexLen {
		fingerprint = fingerprint[:workloadNameHexLen]
	}
	return "user-" + fingerprint
}

// CheckSource pre-screens raw text before any parsing: the only thing
// worth knowing about an oversized body is its size.
func CheckSource(src string, lim Limits) error {
	lim = lim.WithDefaults()
	if len(src) > lim.MaxSourceBytes {
		return fmt.Errorf("%w: %d bytes, cap %d", ErrTooLarge, len(src), lim.MaxSourceBytes)
	}
	if len(src) == 0 {
		return fmt.Errorf("%w: empty source", ErrInvalid)
	}
	return nil
}

// CheckProgram validates a parsed program against the structural
// limits and the trace dictionary's capacity: a program that could
// record more than trace.MaxTuples distinct tuples is turned away here
// rather than failing partway through profiling. Parse runs it after
// assembly; it is also the shared validator for callers that build IR
// some other way (the registry re-validates what it loads from disk,
// tests poke it directly).
func CheckProgram(p *program.Program, lim Limits) error {
	lim = lim.WithDefaults()
	if n := len(p.Blocks); n > lim.MaxBlocks {
		return fmt.Errorf("%w: %d blocks, cap %d", ErrInvalid, n, lim.MaxBlocks)
	}
	if n := p.StaticLen(); n > lim.MaxInsts {
		return fmt.Errorf("%w: %d static instructions, cap %d", ErrInvalid, n, lim.MaxInsts)
	}
	if n := tupleBound(p); n > trace.MaxTuples {
		return fmt.Errorf("%w: up to %d trace tuples (static instructions plus conditional branches), cap %d", ErrInvalid, n, trace.MaxTuples)
	}
	if n := p.Data.Len(); n > lim.MaxDataEntries {
		return fmt.Errorf("%w: %d initialized data words, cap %d", ErrInvalid, n, lim.MaxDataEntries)
	}
	if p.MemWords <= 0 {
		return fmt.Errorf("%w: no data memory declared", ErrInvalid)
	}
	if p.MemWords > lim.MaxMemWords {
		return fmt.Errorf("%w: %d memory words, cap %d", ErrInvalid, p.MemWords, lim.MaxMemWords)
	}
	if a, bad := p.Data.FirstOutside(p.MemWords); bad {
		return fmt.Errorf("%w: data init address %d outside memory [0,%d)", ErrInvalid, a, p.MemWords)
	}
	return nil
}

// tupleBound bounds the trace tuples p can record. Tuples are keyed by
// (PC, direction) and the ISA has no indirect jumps, so a conditional
// branch contributes at most two and every other instruction one.
func tupleBound(p *program.Program) int {
	n := 0
	for _, b := range p.Blocks {
		for _, in := range b.Insts {
			n++
			if isa.ClassOf(in.Op) == isa.ClassBranch {
				n++
			}
		}
	}
	return n
}

// Parse turns untrusted source text into a validated, canonically
// named program. Violations of the size cap wrap ErrTooLarge; every
// other rejection wraps ErrInvalid.
func Parse(src string, lim Limits) (*program.Program, error) {
	lim = lim.WithDefaults()
	if err := CheckSource(src, lim); err != nil {
		return nil, err
	}
	p, err := asm.AssembleLimited(canonicalName, src, lim.asmLimits())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if err := CheckProgram(p, lim); err != nil {
		return nil, err
	}
	return p, nil
}
