package cache

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

// cleanAll marks a stack entry that is clean in every cache.
const cleanAll = int32(1<<31 - 1)

// wbEntry is one block in a WBStackSim LRU stack. cleanLimit encodes
// the per-associativity dirty state compactly: the block is dirty in
// the A-way cache iff A > cleanLimit. A write sets cleanLimit to 0
// (write-allocate marks every cache's copy dirty); a read hit at stack
// depth d raises it to at least d (caches with ≤ d ways missed and
// refilled the block clean); cleanAll means dirty nowhere.
type wbEntry struct {
	tag        int64
	cleanLimit int32
}

// WBStackSim is an all-associativity stack-distance simulator in the
// style of Mattson et al. (1970) and Hill & Smith (1989) — under LRU a
// reference hits in an A-way cache iff its depth in the per-set LRU
// stack is < A (stack inclusion) — with per-class depth histograms and
// exact per-associativity writeback counts. One pass over a cache's
// input stream yields, for every associativity at this set count, the
// same per-class miss counts and dirty-eviction counts a real LRU
// write-back cache of that geometry would observe.
//
// Writeback counting exploits that a block's stack depth grows by at
// most one per access: an entry pushed from depth A-1 to depth A is,
// at that instant, the block the A-way cache evicts (stack inclusion),
// and the eviction writes back iff the block is dirty there.
type WBStackSim struct {
	sets     int64
	blkShift uint

	stacks [][]wbEntry
	hist   [NumStreamClasses][]int64 // hist[class][depth]
	cold   [NumStreamClasses]int64
	acc    [NumStreamClasses]int64
	wb     []int64 // wb[A]: dirty evictions in the A-way cache; index 0 unused
}

// NewWBStackSim builds a class-attributed, writeback-counting stack
// simulator for the given set count and block size (powers of two).
func NewWBStackSim(sets int64, blockBytes int64) *WBStackSim {
	return &WBStackSim{
		sets:     sets,
		blkShift: log2(blockBytes),
		stacks:   make([][]wbEntry, sets),
	}
}

// Sets returns the simulated set count.
func (s *WBStackSim) Sets() int64 { return s.sets }

// ColdDepth is the stack depth Access reports for a never-seen block:
// deeper than any finite associativity, so `depth < ways` uniformly
// decides hit/miss.
const ColdDepth = int(1) << 30

// Access records one reference of the given class; write marks the
// block dirty exactly as a write-allocate write-back cache would. It
// returns the reference's LRU stack depth (0-based; ColdDepth for a
// cold reference): by stack inclusion the reference hits an A-way
// cache of this set count iff depth < A, which is how annotation
// passes recover the per-access outcome for every candidate geometry
// from the one shared simulation.
func (s *WBStackSim) Access(byteAddr int64, class StreamClass, write bool) int {
	s.acc[class]++
	tag := byteAddr >> s.blkShift
	set := tag & (s.sets - 1)
	st := s.stacks[set]
	for i := range st {
		if st[i].tag != tag {
			continue
		}
		// Reference at depth i: a hit for every associativity > i.
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
			// Caches with ≤ i ways missed and refilled clean.
			e.cleanLimit = int32(i)
		}
		st[0] = e
		return i
	}
	// Cold reference: a miss at every associativity.
	s.cold[class]++
	st = append(st, wbEntry{})
	s.stacks[set] = st
	s.sink(st[:len(st)-1])
	e := wbEntry{tag: tag, cleanLimit: cleanAll}
	if write {
		e.cleanLimit = 0
	}
	st[0] = e
	return ColdDepth
}

// sink pushes every entry of st one position deeper, charging the
// writeback each crossing implies. st aliases the head of the per-set
// stack, whose backing array has room for one more entry.
func (s *WBStackSim) sink(st []wbEntry) {
	full := st[:len(st)+1]
	for p := len(st) - 1; p >= 0; p-- {
		e := st[p]
		if int32(p+1) > e.cleanLimit {
			// The (p+1)-way cache evicts this block now, dirty.
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

// ClassAccesses returns the number of references seen for one class.
func (s *WBStackSim) ClassAccesses(class StreamClass) int64 { return s.acc[class] }

// ClassMisses returns the misses references of one class would incur
// in an LRU cache with this set count and the given associativity.
func (s *WBStackSim) ClassMisses(class StreamClass, assoc int) int64 {
	misses := s.cold[class]
	h := s.hist[class]
	for d := assoc; d < len(h); d++ {
		misses += h[d]
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
// cache with this set count and the given associativity would have
// evicted over the stream.
func (s *WBStackSim) Writebacks(assoc int) int64 {
	if assoc < len(s.wb) {
		return s.wb[assoc]
	}
	return 0
}
