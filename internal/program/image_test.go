package program_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/funcsim"
	"repro/internal/program"
)

// FuzzImage drives a program's data image with arbitrary sequences of
// SetData and SetDataSlice calls — out of order, overlapping,
// duplicated, empty, at negative addresses and across the top of the
// address space — with reads interleaved, and checks every reader
// against a map that models the writes: the runs, the count, the
// lookups, the range check, the fingerprint and the disassembly.
//
// Each op is three bytes: kind, address, length. Kind bit 0 selects
// SetDataSlice (else SetData), bit 1 reads the image first, bit 2
// moves the address up near math.MaxInt64, bit 3 clones the program
// and carries on with the clone. Inputs past 64 ops are cut.
func FuzzImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 0, 6, 0, 0, 4, 0})
	f.Add([]byte{1, 10, 4, 0, 12, 0, 3, 8, 5, 1, 11, 0})
	f.Add([]byte{1, 0xf0, 8, 2, 0xf4, 0, 9, 20, 3, 1, 0xfe, 8})
	f.Add([]byte{5, 125, 6, 4, 127, 0, 4, 128, 0, 7, 126, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64] // every step may check the whole image
		}
		p := program.New("fuzz", 64)
		p.Block("main").Halt()
		ref := map[int64]int64{}
		for step := int64(1); len(ops) >= 3; step++ {
			kind, n := ops[0], int(ops[2]%9)
			addr := int64(int8(ops[1]))
			if kind&4 != 0 {
				addr += math.MaxInt64 - 127
			}
			ops = ops[3:]
			if kind&2 != 0 {
				checkImage(t, p, ref)
			}
			if kind&8 != 0 {
				p = p.Clone()
			}
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = step<<8 | int64(i)
			}
			if kind&1 != 0 {
				p.SetDataSlice(addr, vals)
			} else if n > 0 {
				p.SetData(addr, vals[0])
				vals = vals[:1]
			} else {
				vals = nil
			}
			for i, v := range vals {
				ref[addr+int64(i)] = v // wraps like the image
			}
		}
		checkImage(t, p, ref)
	})
}

// checkImage compares every reader of p's data image with ref.
func checkImage(t *testing.T, p *program.Program, ref map[int64]int64) {
	t.Helper()
	runs := p.Data.Runs()
	words := 0
	for i, r := range runs {
		if len(r.Vals) == 0 {
			t.Fatalf("run %d at %d is empty", i, r.Base)
		}
		if i > 0 {
			prev := runs[i-1]
			if r.Base <= prev.Base || uint64(r.Base-prev.Base) < uint64(len(prev.Vals)) {
				t.Fatalf("runs %d and %d out of order or overlapping: %v", i-1, i, runs)
			}
		}
		for j, v := range r.Vals {
			a := r.Base + int64(j)
			if want, ok := ref[a]; !ok || v != want {
				t.Fatalf("word %d = %d, want %d (initialized: %v)", a, v, want, ok)
			}
			if got, ok := p.Data.Get(a); !ok || got != v {
				t.Fatalf("Get(%d) = %d, %v, want %d", a, got, ok, v)
			}
		}
		words += len(r.Vals)
		if _, ok := ref[r.Base-1]; !ok {
			if _, ok := p.Data.Get(r.Base - 1); ok {
				t.Fatalf("Get(%d) found an uninitialized word", r.Base-1)
			}
		}
	}
	if words != len(ref) || p.Data.Len() != len(ref) {
		t.Fatalf("runs hold %d words, Len %d, want %d", words, p.Data.Len(), len(ref))
	}

	addrs := make([]int64, 0, len(ref))
	for a := range ref {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	var outside []int64
	for _, a := range addrs {
		if a < 0 || a >= p.MemWords {
			outside = append(outside, a)
		}
	}
	if a, ok := p.Data.FirstOutside(p.MemWords); ok != (len(outside) > 0) || ok && a != outside[0] {
		t.Fatalf("FirstOutside = %d, %v, want the lowest of %v", a, ok, outside)
	}
	if got, want := p.Fingerprint(), mapFingerprint(p, addrs, ref); got != want {
		t.Fatalf("Fingerprint = %s, map-and-sort reference %s", got, want)
	}
	if got, want := asm.Disassemble(p), mapDisassemble(p, addrs, ref); got != want {
		t.Fatalf("Disassemble:\n%s\nmap-and-sort reference:\n%s", got, want)
	}
}

// mapFingerprint is Fingerprint as it was when Program.Data was a map:
// the reference every content hash, and so every artifact identity,
// must keep matching.
func mapFingerprint(p *program.Program, addrs []int64, data map[int64]int64) string {
	h := sha256.New()
	var buf []byte
	wi := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	ws := func(s string) {
		wi(int64(len(s)))
		buf = append(buf, s...)
	}
	ws(p.Name)
	wi(p.MemWords, int64(len(p.Blocks)))
	for _, blk := range p.Blocks {
		ws(blk.Label)
		ws(blk.LoopLatch)
		head := int64(0)
		if blk.LoopHead {
			head = 1
		}
		wi(head, blk.TripMultiple, int64(len(blk.Insts)))
		for i := range blk.Insts {
			in := &blk.Insts[i]
			ws(in.Label)
			wi(int64(in.Op), int64(in.Dst), int64(in.Src1), int64(in.Src2), in.Imm)
		}
	}
	wi(int64(len(addrs)))
	for _, a := range addrs {
		wi(a, data[a])
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// mapDisassemble is asm.Disassemble's output as it was when
// Program.Data was a map: the data lines in sorted address order,
// between the header and the code.
func mapDisassemble(p *program.Program, addrs []int64, data map[int64]int64) string {
	code := program.New(p.Name, p.MemWords)
	code.Blocks = p.Blocks
	header := fmt.Sprintf("; %s\n.mem %d\n", p.Name, p.MemWords)
	var b strings.Builder
	b.WriteString(header)
	for _, a := range addrs {
		fmt.Fprintf(&b, ".data %d %d\n", a, data[a])
	}
	b.WriteString(strings.TrimPrefix(asm.Disassemble(code), header))
	return b.String()
}

// TestConcurrentReadsOfFreshProgram: goroutines that share a program
// whose out-of-order writes were never sorted must read it race-free
// and agree. Run under -race.
func TestConcurrentReadsOfFreshProgram(t *testing.T) {
	build := func() *program.Program {
		p := program.New("shared", 256)
		for i := int64(0); i < 64; i++ {
			p.SetData((i*37)%200, i)
		}
		p.SetDataSlice(20, []int64{7, 8, 9})
		b := p.Block("main")
		b.Ld(1, 0, 21)
		b.St(1, 0, 250)
		b.Halt()
		return p
	}
	ref := build()
	wantFP, wantDis := ref.Fingerprint(), asm.Disassemble(ref)

	p := build()
	reads := []func() error{
		func() error {
			if fp := p.Fingerprint(); fp != wantFP {
				return fmt.Errorf("Fingerprint = %s, want %s", fp, wantFP)
			}
			return nil
		},
		func() error {
			if asm.Disassemble(p) != wantDis {
				return fmt.Errorf("Disassemble diverged")
			}
			return nil
		},
		func() error {
			if fp := p.Clone().Fingerprint(); fp != wantFP {
				return fmt.Errorf("clone Fingerprint = %s, want %s", fp, wantFP)
			}
			return nil
		},
		func() error {
			m, err := funcsim.New(p)
			if err != nil {
				return err
			}
			if _, err := m.RunCtx(context.Background(), nil); err != nil {
				return err
			}
			if m.Mem[250] != 8 {
				return fmt.Errorf("copied word = %d, want 8", m.Mem[250])
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(reads))
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts with a different reader, so the
			// first read of every kind races the others.
			for i := range reads {
				if err := reads[(g+i)%len(reads)](); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
