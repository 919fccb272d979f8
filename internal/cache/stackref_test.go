package cache

import (
	"math/rand"
	"testing"
)

// refStackSim is the unbounded stack-distance simulator WBStackSim
// replaced: every set's stack keeps every block it has ever seen, so
// the depth it reports is the true LRU stack distance. It is the
// reference the bounded simulator must agree with at every
// associativity up to its bound.
type refStackSim struct {
	sets     int64
	blkShift uint

	stacks [][]refEntry
	hist   [NumStreamClasses][]int64 // hist[class][depth]
	cold   [NumStreamClasses]int64
	wb     []int64 // wb[A]: dirty evictions in the A-way cache; index 0 unused
}

// refEntry is one block of a reference stack, with WBStackSim's
// cleanLimit encoding of its per-associativity dirty state.
type refEntry struct {
	tag        int64
	cleanLimit int32
}

func newRefStackSim(sets, blockBytes int64) *refStackSim {
	return &refStackSim{sets: sets, blkShift: log2(blockBytes), stacks: make([][]refEntry, sets)}
}

// access records one reference and returns its depth (ColdDepth for
// a block never seen in its set).
func (s *refStackSim) access(byteAddr int64, class StreamClass, write bool) int {
	tag := byteAddr >> s.blkShift
	set := tag & (s.sets - 1)
	st := s.stacks[set]
	for i := range st {
		if st[i].tag != tag {
			continue
		}
		if i >= len(s.hist[class]) {
			grown := make([]int64, i+1)
			copy(grown, s.hist[class])
			s.hist[class] = grown
		}
		s.hist[class][i]++
		e := st[i]
		s.sink(st[:i])
		if write {
			e.cleanLimit = 0
		} else if int32(i) > e.cleanLimit {
			e.cleanLimit = int32(i)
		}
		st[0] = e
		return i
	}
	s.cold[class]++
	st = append(st, refEntry{})
	s.stacks[set] = st
	s.sink(st[:len(st)-1])
	e := refEntry{tag: tag, cleanLimit: 1<<31 - 1}
	if write {
		e.cleanLimit = 0
	}
	st[0] = e
	return ColdDepth
}

// sink pushes every entry of st one position deeper, charging the
// writeback each crossing implies; st's backing array has room for one
// more entry.
func (s *refStackSim) sink(st []refEntry) {
	full := st[:len(st)+1]
	for p := len(st) - 1; p >= 0; p-- {
		e := st[p]
		if int32(p+1) > e.cleanLimit {
			if p+1 >= len(s.wb) {
				grown := make([]int64, p+2)
				copy(grown, s.wb)
				s.wb = grown
			}
			s.wb[p+1]++
		}
		full[p+1] = e
	}
}

func (s *refStackSim) classMisses(class StreamClass, assoc int) int64 {
	misses := s.cold[class]
	h := s.hist[class]
	for d := assoc; d < len(h); d++ {
		misses += h[d]
	}
	return misses
}

func (s *refStackSim) writebacks(assoc int) int64 {
	if assoc < len(s.wb) {
		return s.wb[assoc]
	}
	return 0
}

// FuzzWBStackSim is the differential oracle of the stack bound: over
// arbitrary reference streams whose per-set footprint is many times
// the bound K, the bounded simulator must agree with the unbounded
// reference at every associativity A ≤ K on each access's hit or miss,
// and at the end on every class's misses and on the writebacks. Each
// reference takes one byte of pattern (cyclically): bits 0–1 pick the
// class, bit 2 makes it a write, and bits 3–4 pick the block: fresh
// from a pool of 16·K blocks per set, or a re-reference of the block
// touched 1, K or 2K references ago in the stream — the last two mostly
// blocks the bounded stacks have dropped, dirty when they were written.
func FuzzWBStackSim(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint16(4000), []byte{0x00, 0x04, 0x0d, 0x16, 0x1f})
	f.Add(int64(2), uint8(2), uint8(0), uint16(2000), []byte{0x06, 0x0f, 0x19})
	f.Add(int64(3), uint8(1), uint8(7), uint16(6000), []byte{0x07, 0x1b, 0x12, 0x0a})
	f.Add(int64(4), uint8(3), uint8(15), uint16(9000), []byte{0x04, 0x14, 0x1c, 0x0c, 0x03})
	f.Fuzz(func(t *testing.T, seed int64, setsLog, bound uint8, length uint16, pattern []byte) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		const block = 64
		sets := int64(1) << (setsLog % 4)
		k := 1 + int(bound%16)
		n := 1 + int(length)%10000
		bs := NewWBStackSim(sets, block, k)
		ref := newRefStackSim(sets, block)
		rng := rand.New(rand.NewSource(seed))
		pool := sets * int64(16*k)
		past := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			b := pattern[i%len(pattern)]
			blk := rng.Int63n(pool)
			if back := []int{0, 1, k, 2 * k}[(b>>3)&3]; back > 0 && len(past) >= back {
				blk = past[len(past)-back]
			}
			past = append(past, blk)
			class := StreamClass(b & 3)
			write := b&4 != 0
			addr := blk*block + rng.Int63n(block)
			got, want := bs.Access(addr, class, write), ref.access(addr, class, write)
			for a := 1; a <= k; a++ {
				if (got < a) != (want < a) {
					t.Fatalf("reference %d (block %d): depth %d at bound %d, unbounded depth %d: outcomes differ at %d ways",
						i, blk, got, k, want, a)
				}
			}
		}
		for a := 1; a <= k; a++ {
			for c := StreamClass(0); c < NumStreamClasses; c++ {
				if got, want := bs.ClassMisses(c, a), ref.classMisses(c, a); got != want {
					t.Errorf("%d ways class %d: %d misses, unbounded %d", a, c, got, want)
				}
			}
			if got, want := bs.Writebacks(a), ref.writebacks(a); got != want {
				t.Errorf("%d ways: %d writebacks, unbounded %d", a, got, want)
			}
		}
	})
}
