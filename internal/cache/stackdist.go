package cache

import "fmt"

// StreamClass labels one reference of a cache's input stream so a
// single stack simulation can attribute its per-associativity miss
// counts to the sources the model distinguishes (instruction fetches,
// demand loads, demand stores, and L1 victim writebacks).
type StreamClass uint8

// The stream classes of the unified L2's input stream.
const (
	StreamInstr StreamClass = iota
	StreamLoad
	StreamStore
	StreamWriteback
	NumStreamClasses
)

// MaxStackWays is the largest stack bound a WBStackSim takes: each
// entry keeps its cleanLimit in 8 bits, with cleanAll above every
// depth.
const MaxStackWays = 255

// cleanAll is the cleanLimit of a stack entry that is clean in every
// cache.
const cleanAll = 0xff

// WBStackSim is an all-associativity stack-distance simulator in the
// style of Mattson et al. (1970) and Hill & Smith (1989) — under LRU a
// reference hits in an A-way cache iff its depth in the per-set LRU
// stack is < A (stack inclusion) — with per-class depth histograms and
// exact per-associativity writeback counts. One pass over a cache's
// input stream yields, for every associativity up to the simulator's
// bound at this set count, the same per-class miss counts and
// dirty-eviction counts a real LRU write-back cache of that geometry
// would observe.
//
// Only depths below the bound K — the largest associativity any query
// will ask — can change an answer, so each set's stack keeps at most K
// blocks, in one flat sets×K array: a block pushed past depth K-1
// leaves, and a later reference to it is cold. That is a miss at every
// A ≤ K, exactly as its true depth ≥ K is. A dropped block comes back
// clean at every A ≤ K (a read refills it clean, a write dirties it
// everywhere), just as the deep hit of an unbounded stack would leave
// it.
//
// Each stack entry packs a block's tag (a byte address shifted by the
// block size, below 2^56) above an 8-bit cleanLimit, which encodes the
// entry's per-associativity dirty state compactly: the block is dirty
// in the A-way cache iff A > cleanLimit. A write sets cleanLimit to 0
// (write-allocate marks every cache's copy dirty); a read hit at stack
// depth d raises it to at least d (caches with ≤ d ways missed and
// refilled the block clean); cleanAll means dirty nowhere.
//
// Writeback counting exploits that a block's stack depth grows by at
// most one per access: an entry pushed from depth A-1 to depth A is,
// at that instant, the block the A-way cache evicts (stack inclusion),
// and the eviction writes back iff the block is dirty there.
//
// Memory is fixed at construction: 8 bytes per entry of the sets×K
// array plus one fill count byte per set.
type WBStackSim struct {
	sets     int64
	blkShift uint
	k        int // stack bound: the largest associativity answered

	// The stack of set s is stack[s*k:s*k+fill[s]], most recent first.
	stack []uint64
	fill  []uint8

	// The entry the last access pushed off the bottom of a full stack,
	// if it did (see victim).
	dropped bool
	drop    uint64

	hist [NumStreamClasses][]int64 // hist[class][depth], depth < k
	cold [NumStreamClasses]int64   // references not among their set's k entries
	acc  [NumStreamClasses]int64
	wb   []int64 // wb[A]: dirty evictions in the A-way cache, 1 ≤ A ≤ k
}

// NewWBStackSim builds a class-attributed, writeback-counting stack
// simulator for the given set count and block size (powers of two)
// that answers every associativity up to maxWays (1 to MaxStackWays).
func NewWBStackSim(sets int64, blockBytes int64, maxWays int) *WBStackSim {
	if maxWays <= 0 || maxWays > MaxStackWays {
		panic(fmt.Sprintf("cache: stack bound %d outside 1..%d", maxWays, MaxStackWays))
	}
	s := &WBStackSim{
		sets:     sets,
		blkShift: log2(blockBytes),
		k:        maxWays,
		stack:    make([]uint64, sets*int64(maxWays)),
		fill:     make([]uint8, sets),
		wb:       make([]int64, maxWays+1),
	}
	for c := range s.hist {
		s.hist[c] = make([]int64, maxWays)
	}
	return s
}

// Sets returns the simulated set count.
func (s *WBStackSim) Sets() int64 { return s.sets }

// Ways returns the stack bound: the largest associativity the
// simulator answers.
func (s *WBStackSim) Ways() int { return s.k }

// ColdDepth is the stack depth Access reports for a block not among
// its set's stack entries: deeper than any finite associativity, so
// `depth < ways` uniformly decides hit/miss.
const ColdDepth = int(1) << 30

// Access records one reference of the given class; write marks the
// block dirty exactly as a write-allocate write-back cache would. It
// returns the reference's LRU stack depth (0-based; ColdDepth for a
// cold reference): by stack inclusion the reference hits an A-way
// cache of this set count (A up to the bound) iff depth < A, which is
// how annotation passes recover the per-access outcome for every
// candidate geometry from the one shared simulation.
func (s *WBStackSim) Access(byteAddr int64, class StreamClass, write bool) int {
	s.acc[class]++
	tag := uint64(byteAddr >> s.blkShift)
	set := int(tag & uint64(s.sets-1))
	st := s.stack[set*s.k : (set+1)*s.k]
	n := int(s.fill[set])
	s.dropped = false
	if e := st[0]; n > 0 && e>>8 == tag {
		// A re-reference of the top block moves nothing.
		s.hist[class][0]++
		if write {
			st[0] = tag << 8
		}
		return 0
	}
	// One walk down the stack pushes each entry above the block one
	// position deeper, charging the writeback each crossing implies:
	// moving is the entry moving into position p (position 0 is
	// rewritten at the end).
	moving := tag<<8 | cleanAll
	for p := 0; p < n; p++ {
		e := st[p]
		st[p] = moving
		if e>>8 == tag {
			// A hit for every associativity > p; caches with ≤ p ways
			// missed and refilled the block clean.
			s.hist[class][p]++
			c := max(e&0xff, uint64(p))
			if write {
				c = 0
			}
			st[0] = tag<<8 | c
			return p
		}
		if uint64(p+1) > e&0xff {
			// The (p+1)-way cache evicts this block now, dirty. At
			// p+1 == k the block leaves the stack below.
			s.wb[p+1]++
		}
		moving = e
	}
	// A miss at every associativity. The entry pushed off the bottom
	// of a full stack is cached in no tracked geometry any more.
	s.cold[class]++
	if n < s.k {
		st[n] = moving
		s.fill[set]++
	} else {
		s.dropped, s.drop = true, moving
	}
	c := uint64(cleanAll)
	if write {
		c = 0
	}
	st[0] = tag<<8 | c
	return ColdDepth
}

// isTop reports whether the block holding byteAddr is the most recent
// of its set: a read of it would change nothing but the counters.
func (s *WBStackSim) isTop(byteAddr int64) bool {
	tag := uint64(byteAddr >> s.blkShift)
	set := int(tag & uint64(s.sets-1))
	return s.fill[set] > 0 && s.stack[set*s.k]>>8 == tag
}

// victim returns the block an A-way cache of this set count (A ≤ the
// bound) evicted on the last access, which must have missed it (depth
// ≥ A) and was to byteAddr, as the evicted block's byte address, and
// whether it was dirty at A ways. The evicted block is the one that crossed from depth
// A-1 to A: it now sits at depth A, or, when A is the bound, it was
// pushed off the bottom. It is never dirty when the set held fewer than
// A blocks (the cache filled a free way).
func (s *WBStackSim) victim(byteAddr int64, ways int) (victim int64, dirty bool) {
	set := int((byteAddr >> s.blkShift) & (s.sets - 1))
	var e uint64
	switch {
	case ways < int(s.fill[set]):
		e = s.stack[set*s.k+ways]
	case ways == s.k && s.dropped:
		e = s.drop
	default:
		return 0, false
	}
	return int64(e>>8) << s.blkShift, uint64(ways) > e&0xff
}

// checkWays panics on an associativity beyond the bound: the stacks
// no longer hold what it would need, and a wrong count must not pass
// silently.
func (s *WBStackSim) checkWays(assoc int) {
	if assoc > s.k {
		panic(fmt.Sprintf("cache: %d ways asked of a stack bounded at %d", assoc, s.k))
	}
}

// ClassAccesses returns the number of references seen for one class.
func (s *WBStackSim) ClassAccesses(class StreamClass) int64 { return s.acc[class] }

// ClassMisses returns the misses references of one class would incur
// in an LRU cache with this set count and the given associativity (at
// most the bound).
func (s *WBStackSim) ClassMisses(class StreamClass, assoc int) int64 {
	s.checkWays(assoc)
	misses := s.cold[class]
	for _, n := range s.hist[class][assoc:] {
		misses += n
	}
	return misses
}

// MissesFor returns total misses (all classes) at the given
// associativity.
func (s *WBStackSim) MissesFor(assoc int) int64 {
	var misses int64
	for c := StreamClass(0); c < NumStreamClasses; c++ {
		misses += s.ClassMisses(c, assoc)
	}
	return misses
}

// Writebacks returns the number of dirty blocks an LRU write-back
// cache with this set count and the given associativity (at most the
// bound) would have evicted over the stream.
func (s *WBStackSim) Writebacks(assoc int) int64 {
	s.checkWays(assoc)
	return s.wb[assoc]
}
