package cache

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"repro/internal/trace"
)

// L2SpaceSim simulates a set of hierarchies in one walk over a trace.
// Its unit is the front: the L1 caches, the TLBs and the L2 block size
// a hierarchy shares with others that differ only in their L2. Every
// L2 geometry of a front sees the same input stream, so behind each
// front one WBStackSim per distinct L2 set count recovers the exact
// per-configuration miss and writeback counts for every (size, ways)
// pair via the stack-inclusion property (Mattson et al. 1970; Hill &
// Smith 1989 across set counts). This is the single-pass engine that
// collapses the per-configuration trace replays of the design-space
// exploration into one traversal.
//
// The fronts share everything that does not depend on their L1
// geometry. Each instruction is decoded once, each distinct TLB is
// accessed once, and the same-block fast path is decided once per
// side. The L1s of one side (instruction or data) that have equal set
// counts and block sizes share one bounded stack: an access hits the
// A-way L1 iff its depth is < A, and the A-way victim of a miss is the
// entry crossing from depth A-1 to A, dirty iff its cleanLimit says so
// at A ways. Only each front's miss and writeback stream, its L2
// stacks and its I-side stall count stay its own.
//
// The engine walks trace chunks (ConsumeChunk), reading the id and
// address columns directly. Both of its uses, statistics (StatsFor)
// and annotation planes (RecordPlanes, PlaneFor), run on that one
// walk. cache.Hierarchy, one set-associative cache per level driven
// access by access (Hierarchy.ConsumeChunk), stays as its independent
// reference.
//
// Every stack is bounded by the largest associativity asked of it, so
// the engine's memory is fixed at construction: Σ sets × (8 × bound +
// 1) bytes over its stacks, independent of the trace's footprint.
type L2SpaceSim struct {
	i, d    l1Side
	fronts  []front
	byFront map[HierarchyConfig]int // HierarchyConfig.Front -> index into fronts

	n    int64 // instructions consumed: every one is an L1-I access
	dAcc int64 // loads and stores consumed: the L1-D accesses

	// Annotation mode (RecordPlanes): the first recorded geometry, the
	// lead, always writes a window of its own; every other geometry
	// takes one only once a byte of it differs from the lead's in the
	// chunk (see sealChunk). spare holds windows free for reuse, kept
	// the distinct chunks of the chunk being sealed.
	recording   bool
	lead        *planeGeom
	spare, kept [][]uint8
}

// l1Side is one side (instruction or data) of every front: its
// distinct TLBs and one bounded L1 stack per distinct (set count,
// block size), plus the state of the access in flight.
type l1Side struct {
	tlbs   []*TLB
	stacks []*WBStackSim

	// Same-block fast path, shared by every front: re-touching the
	// block of the side's previous access (at the side's smallest L1
	// block, which lies within one page of every TLB when warmOK) hits
	// every L1 and TLB of the side and changes no replacement state, so
	// it is a pure counter bump. A write additionally needs the block
	// dirty in every L1 already (dirty: the previous access wrote it).
	shift  uint
	warmOK bool
	warm   bool
	dirty  bool
	last   int64

	// The access in flight: each TLB's outcome and its depth in each
	// stack (ColdDepth when absent).
	tlbHit []bool
	depth  []int

	minWays []int // per stack: the fewest ways of an L1 on it

	// coarse is the stack with the fewest sets when every stack has the
	// same block size, else -1. The set mapping of every other stack
	// refines its mapping, so a block that is the most recent of its
	// set there is the most recent of its set in every stack (Hill and
	// Smith's set-refinement inclusion).
	coarse int
}

// access presents one reference to every TLB and stack of the side,
// recording its outcomes. It reports whether any TLB or L1 of the side
// missed; when none did, no front sees an event.
func (sd *l1Side) access(byteAddr int64, class StreamClass, write bool) (miss bool) {
	for t, tlb := range sd.tlbs {
		hit := tlb.Access(byteAddr)
		sd.tlbHit[t] = hit
		miss = miss || !hit
	}
	if !write && sd.coarse >= 0 && sd.stacks[sd.coarse].isTop(byteAddr) {
		// A read of a block on top of its set in every stack hits
		// every L1 and moves nothing.
		clear(sd.depth)
		return miss
	}
	for k, st := range sd.stacks {
		d := st.Access(byteAddr, class, write)
		sd.depth[k] = d
		miss = miss || d >= sd.minWays[k]
	}
	return miss
}

// front is one L1/TLB front with its L2 block size: where its L1s and
// TLBs sit on the shared sides, its own L2 stacks and its counters.
type front struct {
	il1, dl1         int // stack index on each side
	il1Ways, dl1Ways int
	itlb, dtlb       int // TLB index on each side

	sims   []*WBStackSim // one per distinct L2 set count
	bySets map[int64]int // set count -> index into sims

	il1Misses, dl1Misses, dl1LoadMisses int64

	// iStalls counts instructions whose fetch missed a TLB or L1 (any
	// non-zero I-side event class). The detailed simulator re-accesses
	// the hierarchy when fetch resumes after such a stall — a
	// guaranteed hit that bumps only IL1Accesses — so reconstructing
	// its exact Stats needs this count (see IStallEvents).
	iStalls int64

	// Annotation mode (RecordPlanes): the TLB/L1 event bits of the
	// instruction in flight, the stack depth per sims[k] of its I-side
	// and demand D-side L2 accesses, and one byte-plane builder per
	// recorded geometry.
	ev      uint8
	iDepths []int32
	dDepths []int32
	rec     []planeGeom
}

// l2Access presents one reference to every set-count simulator of the
// front. With depths non-nil (annotation mode) it records each
// simulator's stack depth into depths.
func (f *front) l2Access(byteAddr int64, class StreamClass, write bool, depths []int32) {
	if depths == nil {
		for _, sim := range f.sims {
			sim.Access(byteAddr, class, write)
		}
		return
	}
	for k, sim := range f.sims {
		depths[k] = int32(sim.Access(byteAddr, class, write))
	}
}

// sideBuilder collects one side's distinct stacks, with the largest
// associativity asked of each, and its distinct TLBs.
type sideBuilder struct {
	stacks []stackShape
	tlbs   []TLB // entries and page size
}

// stackShape is one bounded stack: set count, block size, and the
// fewest and most ways of its L1s (the latter is the bound).
type stackShape struct {
	sets, block      int64
	minWays, maxWays int
}

// stack registers the L1 c and returns its stack index.
func (b *sideBuilder) stack(c Config) int {
	k := slices.IndexFunc(b.stacks, func(st stackShape) bool { return st.sets == c.Sets() && st.block == c.BlockBytes })
	if k < 0 {
		b.stacks = append(b.stacks, stackShape{sets: c.Sets(), block: c.BlockBytes, minWays: c.Ways})
		k = len(b.stacks) - 1
	}
	st := &b.stacks[k]
	st.minWays, st.maxWays = min(st.minWays, c.Ways), max(st.maxWays, c.Ways)
	return k
}

// tlb registers a TLB and returns its index.
func (b *sideBuilder) tlb(entries int, pageBytes int64) int {
	k := slices.IndexFunc(b.tlbs, func(t TLB) bool { return t.Entries == entries && t.PageBytes == pageBytes })
	if k < 0 {
		b.tlbs = append(b.tlbs, TLB{Entries: entries, PageBytes: pageBytes})
		k = len(b.tlbs) - 1
	}
	return k
}

// build makes the side's stacks and TLBs.
func (b *sideBuilder) build() (l1Side, error) {
	var sd l1Side
	minBlock, minPage := b.stacks[0].block, b.tlbs[0].PageBytes
	for _, st := range b.stacks {
		sd.stacks = append(sd.stacks, NewWBStackSim(st.sets, st.block, st.maxWays))
		sd.minWays = append(sd.minWays, st.minWays)
		minBlock = min(minBlock, st.block)
	}
	for _, t := range b.tlbs {
		tlb, err := NewTLB(t.Entries, t.PageBytes)
		if err != nil {
			return l1Side{}, err
		}
		sd.tlbs = append(sd.tlbs, tlb)
		minPage = min(minPage, t.PageBytes)
	}
	sd.shift, sd.warmOK = log2(minBlock), minBlock <= minPage
	sd.coarse = 0
	for k, st := range b.stacks {
		if st.block != b.stacks[0].block {
			sd.coarse = -1
			break
		}
		if st.sets < b.stacks[sd.coarse].sets {
			sd.coarse = k
		}
	}
	sd.tlbHit = make([]bool, len(sd.tlbs))
	sd.depth = make([]int, len(sd.stacks))
	return sd, nil
}

// Stackable reports why NewL2SpaceSim cannot take h, if it cannot: h
// is invalid, or one of its caches has more than MaxStackWays ways.
func Stackable(h HierarchyConfig) error {
	if err := h.Validate(); err != nil {
		return err
	}
	for _, c := range []Config{h.IL1, h.DL1, h.L2} {
		if c.Ways > MaxStackWays {
			return fmt.Errorf("cache: L2SpaceSim: %s has more than %d ways", c, MaxStackWays)
		}
	}
	return nil
}

// NewL2SpaceSim builds the engine for the hierarchies hiers: one front
// per distinct L1/TLB front and L2 block size, and behind each front
// one L2 stack per distinct set count, bounded by the largest
// associativity of the front's L2s at that set count.
func NewL2SpaceSim(hiers []HierarchyConfig) (*L2SpaceSim, error) {
	if len(hiers) == 0 {
		return nil, fmt.Errorf("cache: L2SpaceSim needs at least one hierarchy")
	}
	s := &L2SpaceSim{byFront: make(map[HierarchyConfig]int)}
	var ib, db sideBuilder
	var l2Ways []map[int64]int // per front: L2 set count -> largest ways
	var l2Block []int64        // per front: L2 block size
	for _, h := range hiers {
		if err := Stackable(h); err != nil {
			return nil, err
		}
		key := h.Front()
		fi, ok := s.byFront[key]
		if !ok {
			fi = len(s.fronts)
			s.byFront[key] = fi
			s.fronts = append(s.fronts, front{
				il1: ib.stack(h.IL1), il1Ways: h.IL1.Ways, itlb: ib.tlb(h.ITLBEntries, h.PageBytes),
				dl1: db.stack(h.DL1), dl1Ways: h.DL1.Ways, dtlb: db.tlb(h.DTLBEntries, h.PageBytes),
				bySets: make(map[int64]int),
			})
			l2Ways = append(l2Ways, make(map[int64]int))
			l2Block = append(l2Block, h.L2.BlockBytes)
		}
		sc := h.L2.Sets()
		l2Ways[fi][sc] = max(l2Ways[fi][sc], h.L2.Ways)
	}
	var err error
	if s.i, err = ib.build(); err != nil {
		return nil, err
	}
	if s.d, err = db.build(); err != nil {
		return nil, err
	}
	for fi := range s.fronts {
		f := &s.fronts[fi]
		// Deterministic simulator order (stats are order-independent,
		// but determinism keeps memory layout and profiles stable).
		for _, sc := range slices.Sorted(maps.Keys(l2Ways[fi])) {
			f.bySets[sc] = len(f.sims)
			f.sims = append(f.sims, NewWBStackSim(sc, l2Block[fi], l2Ways[fi][sc]))
		}
	}
	return s, nil
}

// locate returns the front of h and the index of the set-count
// simulator that answers h's L2: an error if the front, the set count
// or the associativity (beyond the stack bound of its set count) is not
// simulated.
func (s *L2SpaceSim) locate(h HierarchyConfig) (fi, k int, err error) {
	if err := h.L2.Validate(); err != nil {
		return 0, 0, err
	}
	fi, ok := s.byFront[h.Front()]
	if !ok {
		return 0, 0, fmt.Errorf("cache: L2SpaceSim: front of %s not simulated", h.L2)
	}
	f := &s.fronts[fi]
	if k, ok = f.bySets[h.L2.Sets()]; !ok {
		return 0, 0, fmt.Errorf("cache: L2SpaceSim: L2 set count %d not simulated", h.L2.Sets())
	}
	if bound := f.sims[k].Ways(); h.L2.Ways > bound {
		return 0, 0, fmt.Errorf("cache: L2SpaceSim: %d ways exceed the %d-way stack bound of L2 set count %d",
			h.L2.Ways, bound, h.L2.Sets())
	}
	return fi, k, nil
}

// planeGeom is one recorded L2 geometry of a front: which of the
// front's simulators resolves it and at what associativity, plus the
// plane being built and the window its chunk under construction is
// written into. cur is nil while the geometry follows the lead (see
// L2SpaceSim.lead): every byte it has produced in the chunk so far
// equals the lead's, so the lead's window holds them.
type planeGeom struct {
	sim  int // index into the front's sims
	ways int32
	b    *trace.BytePlaneBuilder
	cur  []uint8
}

// RecordPlanes switches the engine into annotation mode: from now on
// every consumed instruction appends one memory-event class byte (see
// trace.Ann* bits) to a plane per hierarchy of hiers. The TLB and L1
// bits are those of the hierarchy's front; the L2 bits are decided by
// the reference's stack depth in the front's simulator of the L2's set
// count (hit iff depth < ways). It is an error to call it after the
// engine has consumed input (the planes would be shorter than the
// trace) or more than once.
func (s *L2SpaceSim) RecordPlanes(hiers []HierarchyConfig) error {
	if s.recording {
		return fmt.Errorf("cache: L2SpaceSim: RecordPlanes called twice")
	}
	if s.n > 0 {
		return fmt.Errorf("cache: L2SpaceSim: RecordPlanes after %d instructions were consumed", s.n)
	}
	recs := make([][]planeGeom, len(s.fronts))
	for _, h := range hiers {
		fi, k, err := s.locate(h)
		if err != nil {
			return err
		}
		ways := int32(h.L2.Ways)
		if !slices.ContainsFunc(recs[fi], func(g planeGeom) bool { return g.sim == k && g.ways == ways }) {
			recs[fi] = append(recs[fi], planeGeom{sim: k, ways: ways, b: trace.NewBytePlaneBuilder()})
		}
	}
	for fi := range s.fronts {
		f := &s.fronts[fi]
		f.rec = recs[fi]
		f.iDepths = make([]int32, len(f.sims))
		f.dDepths = make([]int32, len(f.sims))
	}
	for fi := range s.fronts {
		if len(s.fronts[fi].rec) > 0 {
			s.lead = &s.fronts[fi].rec[0]
			break
		}
	}
	s.recording = s.lead != nil
	return nil
}

// PlaneFor returns the recorded annotation plane of one hierarchy.
func (s *L2SpaceSim) PlaneFor(h HierarchyConfig) (*trace.BytePlane, error) {
	fi, k, err := s.locate(h)
	if err != nil {
		return nil, err
	}
	for _, g := range s.fronts[fi].rec {
		if g.sim == k && g.ways == int32(h.L2.Ways) {
			return g.b.Plane(), nil
		}
	}
	return nil, fmt.Errorf("cache: L2SpaceSim: geometry %dKB/%dw not recorded", h.L2.SizeBytes/1024, h.L2.Ways)
}

// ConsumeChunk advances the engine over one trace chunk, mirroring
// Hierarchy's access sequence exactly for every front: per instruction
// the I-fetch first, then (for loads/stores) the dirty L1 victim's L2
// writeback, then the demand data access. It reads the chunk's columns
// directly: PC and flags from the dictionary, addresses from the Addr
// column with a running index. In annotation mode it writes each
// recorded geometry's bytes of the chunk into a window (only the
// instructions some front saw an event on), then appends the chunk to
// the geometry's plane (see sealChunk).
func (s *L2SpaceSim) ConsumeChunk(ck *trace.Columns) {
	if ck.Wide() {
		consumeChunk(s, ck, ck.ID16[:ck.N])
	} else {
		consumeChunk(s, ck, ck.ID8[:ck.N])
	}
	if s.recording {
		s.sealChunk(ck.N)
	}
}

// window returns a zeroed chunk window, reusing a spare one if any.
func (s *L2SpaceSim) window() []uint8 {
	if k := len(s.spare); k > 0 {
		w := s.spare[k-1]
		s.spare = s.spare[:k-1]
		clear(w)
		return w
	}
	return make([]uint8, trace.ChunkLen)
}

// openChunk readies the recorded geometries for a new chunk: the lead
// gets a fresh window, and every other geometry follows it.
func (s *L2SpaceSim) openChunk() {
	for fi := range s.fronts {
		for r := range s.fronts[fi].rec {
			s.fronts[fi].rec[r].cur = nil
		}
	}
	s.lead.cur = s.window()
}

// sealChunk appends the n-byte chunk each recorded geometry has just
// produced to that geometry's plane. A geometry that followed the lead
// through the chunk appends the lead's window itself, and one whose
// window equals an earlier geometry's chunk appends that chunk and
// frees its window; every other window becomes a chunk of its own. So
// planes that agree over a chunk share one array, and memory holds
// about one byte per instruction per distinct chunk rather than one
// per geometry: geometries often agree (an L2 the trace's footprint
// fits produces the same classes at every size).
func (s *L2SpaceSim) sealChunk(n int) {
	kept := s.kept[:0]
	for fi := range s.fronts {
		for r := range s.fronts[fi].rec {
			g := &s.fronts[fi].rec[r]
			c := g.cur
			if c == nil {
				c = s.lead.cur
			} else if k := slices.IndexFunc(kept, func(k []uint8) bool { return bytes.Equal(k[:n], c[:n]) }); k >= 0 {
				s.spare = append(s.spare, c)
				c = kept[k]
			} else {
				kept = append(kept, c)
			}
			g.b.AppendShared(c, n)
		}
	}
	s.kept = kept
}

// consumeChunk is ConsumeChunk over the chunk's id column ids.
func consumeChunk[I trace.ID](s *L2SpaceSim, ck *trace.Columns, ids []I) {
	s.n += int64(ck.N)
	fronts := s.fronts
	lead := s.lead
	if lead != nil {
		s.openChunk()
	}
	// The warm state lives in locals for the chunk: a warm access
	// changes nothing but access counts, which are derived from n and
	// dAcc.
	is, ds := &s.i, &s.d
	iWarm, lastI := is.warm, is.last
	dWarm, dDirty, lastD := ds.warm, ds.dirty, ds.last
	k := 0 // running index into ck.Addr
	for j, id := range ids {
		st := &ck.Static[id]
		ev := false // some front saw a TLB or L1 miss (see l1Side.access)

		byteAddr := int64(st.PC) * InstrBytes
		if tag := byteAddr >> is.shift; !iWarm || tag != lastI {
			lastI, iWarm = tag, is.warmOK
			if is.access(byteAddr, StreamInstr, false) {
				ev = true
				for fi := range fronts {
					f := &fronts[fi]
					var b uint8
					if !is.tlbHit[f.itlb] {
						b = trace.AnnITLBMiss
					}
					if is.depth[f.il1] >= f.il1Ways {
						b |= trace.AnnIL1Miss
						f.il1Misses++
						f.l2Access(byteAddr, StreamInstr, false, f.iDepths)
					}
					if b != 0 {
						f.iStalls++
						f.ev = b
					}
				}
			}
		}

		if fl := st.Flags; fl&trace.FlagMem != 0 {
			write := fl&trace.FlagStore != 0
			byteAddr = int64(ck.Addr[k]) * WordBytes
			k++
			if tag := byteAddr >> ds.shift; !dWarm || tag != lastD || (write && !dDirty) {
				lastD, dWarm, dDirty = tag, ds.warmOK, write
				class := StreamLoad
				if write {
					class = StreamStore
				}
				if ds.access(byteAddr, class, write) {
					ev = true
					for fi := range fronts {
						f := &fronts[fi]
						var b uint8
						if !ds.tlbHit[f.dtlb] {
							b = trace.AnnDTLBMiss
						}
						if sk := f.dl1; ds.depth[sk] >= f.dl1Ways {
							if victim, dirty := ds.stacks[sk].victim(byteAddr, f.dl1Ways); dirty {
								f.l2Access(victim, StreamWriteback, true, nil)
							}
							b |= trace.AnnDL1Miss
							f.dl1Misses++
							if !write {
								f.dl1LoadMisses++
							}
							f.l2Access(byteAddr, class, write, f.dDepths)
						}
						f.ev |= b
					}
				}
			}
		}

		// A zero byte (every access hit) is already in the plane, and
		// the L2 bits are only ever set behind an L1 miss.
		if !ev {
			continue
		}
		for fi := range fronts {
			f := &fronts[fi]
			for r := range f.rec {
				g := &f.rec[r]
				b := f.ev
				if b&trace.AnnIL1Miss != 0 && f.iDepths[g.sim] >= g.ways {
					b |= trace.AnnIL2Miss
				}
				if b&trace.AnnDL1Miss != 0 && f.dDepths[g.sim] >= g.ways {
					b |= trace.AnnDL2Miss
				}
				if g.cur == nil { // following the lead
					if b == lead.cur[j] {
						continue
					}
					g.cur = s.window()
					copy(g.cur[:j], lead.cur[:j])
				}
				g.cur[j] = b
			}
			f.ev = 0
		}
	}
	is.warm, is.last = iWarm, lastI
	ds.warm, ds.dirty, ds.last = dWarm, dDirty, lastD
	s.dAcc += int64(k)
}

// IStallEvents returns the number of instruction fetches of h's front
// that stalled on a TLB or L1-I miss. The detailed pipeline simulator
// performs one extra (hitting) hierarchy access per such event when
// fetch resumes, so its reported IL1Accesses exceeds the program-order
// count by exactly this number.
func (s *L2SpaceSim) IStallEvents(h HierarchyConfig) (int64, error) {
	fi, _, err := s.locate(h)
	if err != nil {
		return 0, err
	}
	return s.fronts[fi].iStalls, nil
}

// StatsFor reconstructs the full Stats a Hierarchy h would have
// collected over the same stream.
func (s *L2SpaceSim) StatsFor(h HierarchyConfig) (Stats, error) {
	fi, k, err := s.locate(h)
	if err != nil {
		return Stats{}, err
	}
	f := &s.fronts[fi]
	sim, ways := f.sims[k], h.L2.Ways
	out := Stats{
		IL1Accesses:   s.n,
		IL1Misses:     f.il1Misses,
		IL2Misses:     sim.ClassMisses(StreamInstr, ways),
		DL1Accesses:   s.dAcc,
		DL1Misses:     f.dl1Misses,
		DL1LoadMisses: f.dl1LoadMisses,
		DL2LoadMisses: sim.ClassMisses(StreamLoad, ways),
		ITLBMisses:    s.i.tlbs[f.itlb].Misses,
		DTLBMisses:    s.d.tlbs[f.dtlb].Misses,
		Writebacks:    sim.Writebacks(ways),
	}
	out.DL2Misses = out.DL2LoadMisses + sim.ClassMisses(StreamStore, ways)
	return out, nil
}
