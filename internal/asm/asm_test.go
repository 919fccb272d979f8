package asm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/randprog"
	"repro/internal/workloads"
)

const sample = `
; sum the first 10 integers
.mem 64
.data 0x10 0
main:
  li   r1, 0        ; i
  li   r2, 10       ; n
  li   r3, 0        ; sum
loop:
  add  r3, r3, r1
  addi r1, r1, 1
  blt  r1, r2, loop
end:
  st   r3, 0x10(r0)
  halt
.loop loop loop 1
`

func TestAssembleAndRun(t *testing.T) {
	p, err := Assemble("sum", sample)
	if err != nil {
		t.Fatal(err)
	}
	m := funcsim.MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Mem[0x10] != 45 {
		t.Errorf("sum = %d, want 45", m.Mem[0x10])
	}
	blk := p.FindBlock("loop")
	if blk == nil || !blk.LoopHead || blk.TripMultiple != 1 {
		t.Errorf("loop annotation not applied: %+v", blk)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"no mem":           "main:\n halt\n",
		"bad mnemonic":     ".mem 8\nmain:\n frob r1\n",
		"bad register":     ".mem 8\nmain:\n add rX, r1, r2\n halt\n",
		"reg out of range": ".mem 8\nmain:\n add r99, r1, r2\n halt\n",
		"wrong arity":      ".mem 8\nmain:\n add r1, r2\n halt\n",
		"bad mem operand":  ".mem 8\nmain:\n ld r1, r2\n halt\n",
		"orphan inst":      ".mem 8\n add r1, r2, r3\n",
		"bad directive":    ".mem 8\n.bogus 1\nmain:\n halt\n",
		"unknown target":   ".mem 8\nmain:\n jmp nowhere\n",
		"loop before decl": ".mem 8\n.loop x x 4\nmain:\n halt\n",
		"empty label":      ".mem 8\n:\n halt\n",
	}
	for name, src := range cases {
		if _, err := Assemble("t", src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHexAndNegativeLiterals(t *testing.T) {
	p, err := Assemble("t", ".mem 0x40\nmain:\n li r1, -5\n addi r2, r1, 0x10\n st r2, 0(r0)\n halt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := funcsim.MustNew(p)
	if _, err := m.RunCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if m.Mem[0] != 11 {
		t.Errorf("result = %d, want 11", m.Mem[0])
	}
}

// TestRoundTripWorkloads: disassembling a real kernel and reassembling
// it must produce a behaviorally identical program.
func TestRoundTripWorkloads(t *testing.T) {
	for _, name := range []string{"sha", "adpcm_c", "crc32"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src := spec.Build()
		text := Disassemble(src)
		back, err := Assemble(name, text)
		if err != nil {
			t.Fatalf("%s: reassemble: %v\nfirst lines:\n%s", name, err,
				strings.Join(strings.Split(text, "\n")[:10], "\n"))
		}
		m1 := funcsim.MustNew(src)
		if _, err := m1.RunCtx(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		m2 := funcsim.MustNew(back)
		if _, err := m2.RunCtx(context.Background(), nil); err != nil {
			t.Fatalf("%s: reassembled program failed: %v", name, err)
		}
		for i := 0; i < 16; i++ {
			if m1.Mem[i] != m2.Mem[i] {
				t.Errorf("%s: memory word %d differs after round trip", name, i)
			}
		}
	}
}

// TestRoundTripRandomPrograms fuzzes the assembler/disassembler pair.
func TestRoundTripRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Generate(randprog.Default(seed))
		back, err := Assemble(src.Name, Disassemble(src))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m1 := funcsim.MustNew(src)
		m2 := funcsim.MustNew(back)
		n1, err1 := m1.RunCtx(context.Background(), nil)
		n2, err2 := m2.RunCtx(context.Background(), nil)
		if err1 != nil || err2 != nil || n1 != n2 {
			t.Fatalf("seed %d: round trip diverged (n %d vs %d, errs %v/%v)", seed, n1, n2, err1, err2)
		}
		for i := 0; i < 8; i++ {
			if m1.Mem[i] != m2.Mem[i] {
				t.Errorf("seed %d: memory differs", seed)
			}
		}
	}
}
