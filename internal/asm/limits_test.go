package asm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// TestAssembleLimited: each static limit rejects with ErrLimit, and
// the same source passes once the limit is loosened.
func TestAssembleLimited(t *testing.T) {
	src := ".mem 64\n.data 0 1\n.data 1 2\nmain:\n li r1, 1\n addi r1, r1, 1\nnext:\n halt\n"
	loose := Limits{MaxSourceBytes: 1 << 10, MaxBlocks: 8, MaxInsts: 8, MaxDataEntries: 8, MaxMemWords: 128}
	if _, err := AssembleLimited("t", src, loose); err != nil {
		t.Fatalf("loose limits rejected a fine program: %v", err)
	}
	cases := []struct {
		name string
		lim  Limits
	}{
		{"source bytes", Limits{MaxSourceBytes: 10}},
		{"blocks", Limits{MaxBlocks: 1}},
		{"instructions", Limits{MaxInsts: 2}},
		{"data entries", Limits{MaxDataEntries: 1}},
		{"memory words", Limits{MaxMemWords: 32}},
	}
	for _, c := range cases {
		_, err := AssembleLimited("t", src, c.lim)
		if !errors.Is(err, ErrLimit) {
			t.Errorf("%s: err = %v, want ErrLimit", c.name, err)
		}
	}
}

// TestAssembleLimitedZeroMeansUnlimited: the zero value must behave
// exactly like Assemble.
func TestAssembleLimitedZeroMeansUnlimited(t *testing.T) {
	src := ".mem 64\nmain:\n" + strings.Repeat(" addi r1, r1, 1\n", 100) + " halt\n"
	p1, err := AssembleLimited("t", src, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("limited and unlimited assembly disagree")
	}
}

// TestDataOverwriteNotDoubleCounted: re-initializing the same address
// must not consume extra data-entry budget.
func TestDataOverwriteNotDoubleCounted(t *testing.T) {
	src := ".mem 8\n.data 0 1\n.data 0 2\n.data 0 3\nmain:\n halt\n"
	if _, err := AssembleLimited("t", src, Limits{MaxDataEntries: 1}); err != nil {
		t.Fatalf("overwrites double-counted: %v", err)
	}
}

// TestDataLimitCountsDistinctWords: MaxDataEntries bounds distinct
// words however often they are rewritten, both when the count runs
// mid-source (past twice the limit) and when it runs at the end.
func TestDataLimitCountsDistinctWords(t *testing.T) {
	const lim = 4
	var dup strings.Builder
	dup.WriteString(".mem 64\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&dup, ".data %d %d\n.data 0 2 1 0\n", 3-i%4, i)
	}
	dup.WriteString("main:\n halt\n")
	if _, err := AssembleLimited("t", dup.String(), Limits{MaxDataEntries: lim}); err != nil {
		t.Fatalf("rewrites of %d words counted against a limit of %d: %v", lim, lim, err)
	}
	for _, src := range []string{
		".mem 64\n.data 9 1 2 3 4 5 6 7 8 9\nmain:\n halt\n",             // mid-source
		".mem 64\n.data 0 1\n.data 0 2\n.data 1 3 4 5 6\nmain:\n halt\n", // at the end
	} {
		if _, err := AssembleLimited("t", src, Limits{MaxDataEntries: lim}); !errors.Is(err, ErrLimit) {
			t.Errorf("5 distinct words under a limit of %d: err = %v, want ErrLimit", lim, err)
		}
	}
}

// TestDataLimitLinear: a source of the ingestion maximum (1 MiB) made
// of single-word .data lines at scattered, often repeated addresses
// assembles in time linear in its size: within 8x the time of a
// source of the same size made of instructions. Counting the distinct
// words at every word would take minutes, so the test gives up on a
// run at that bound instead of waiting for it.
func TestDataLimitLinear(t *testing.T) {
	lim := Limits{MaxSourceBytes: 1 << 20, MaxDataEntries: 1 << 16, MaxMemWords: 1 << 21}
	source := func(line func(i int) string) string {
		var b strings.Builder
		b.WriteString(".mem 65536\nmain:\n")
		for i := 0; b.Len() < lim.MaxSourceBytes-32; i++ {
			b.WriteString(line(i))
		}
		b.WriteString(" halt\n")
		return b.String()
	}
	x := uint32(1)
	data := source(func(int) string {
		x = x*1664525 + 1013904223
		return fmt.Sprintf(".data %d %d\n", x>>16, x&0xff)
	})
	code := source(func(i int) string { return fmt.Sprintf(" addi r1, r1, %d\n", i&0xff) })
	assemble := func(src string) (time.Duration, error) {
		t0 := time.Now()
		_, err := AssembleLimited("t", src, lim)
		return time.Since(t0), err
	}
	base := time.Duration(math.MaxInt64)
	for range 3 {
		d, err := assemble(code)
		if err != nil {
			t.Fatal(err)
		}
		base = min(base, d)
	}
	var took []time.Duration
	for range 3 {
		done := make(chan error, 1)
		t0 := time.Now()
		go func() {
			_, err := assemble(data)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if took = append(took, time.Since(t0)); took[len(took)-1] <= 8*base {
				return
			}
		case <-time.After(8 * base):
			t.Fatalf("1 MiB of scattered .data still assembling after %v, 8x the %v of 1 MiB of instructions", 8*base, base)
		}
	}
	t.Errorf("1 MiB of scattered .data took %v, 1 MiB of instructions %v: not linear", took, base)
}
