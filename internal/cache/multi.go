package cache

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// L2SpaceSim simulates the fixed part of a hierarchy (split L1s and
// TLBs) exactly once and, behind it, every candidate L2 geometry at
// the same time: the L2's input stream depends only on the fixed L1s,
// so one WBStackSim per distinct L2 set count recovers the exact
// per-configuration miss and writeback counts for every (size, ways)
// pair via the stack-inclusion property. This is the single-pass
// engine that collapses the per-configuration trace replays of the
// design-space exploration into one traversal.
//
// The engine walks trace chunks (ConsumeChunk), reading the id and
// address columns directly; it never reconstructs a DynInst. Both of
// its uses, statistics (StatsFor) and annotation planes (RecordPlanes,
// PlaneFor), run on that one walk. cache.Hierarchy, driven one DynInst
// at a time, stays as its independent reference.
type L2SpaceSim struct {
	il1, dl1   *Cache
	itlb, dtlb *TLB

	fixed   Stats // counters independent of the L2 geometry
	l2Block int64
	sims    []*WBStackSim // one per distinct L2 set count
	bySets  map[int64]int // set count -> index into sims

	n int64 // instructions consumed

	// Annotation-plane recording (RecordPlanes): per-access stack
	// depths of the current instruction's L2 accesses, non-nil once
	// recording, and one byte-plane builder per recorded geometry.
	rec     []planeGeom
	iDepths []int32 // depth per sims[k] of this instruction's I-side L2 access
	dDepths []int32 // ... and of its demand D-side L2 access

	// iStalls counts instructions whose fetch missed a TLB or L1 (any
	// non-zero I-side event class). The detailed simulator re-accesses
	// the hierarchy when fetch resumes after such a stall — a
	// guaranteed hit that bumps only IL1Accesses — so reconstructing
	// its exact Stats needs this count (see IStallEvents).
	iStalls int64

	// Same-block fast path, mirroring Hierarchy's: re-touching the MRU
	// line and MRU page changes no replacement state and cannot reach
	// the L2, so an all-hit repeat access is a pure counter bump.
	warmOK   bool
	iWarm    bool
	lastITag int64
	dWarm    bool
	dDirty   bool
	lastDTag int64
}

// NewL2SpaceSim builds the engine for the fixed front of base (base's
// own L2 is ignored) and the candidate L2 configurations l2s, which
// must all share one block size.
func NewL2SpaceSim(base HierarchyConfig, l2s []Config) (*L2SpaceSim, error) {
	if len(l2s) == 0 {
		return nil, fmt.Errorf("cache: L2SpaceSim needs at least one L2 configuration")
	}
	if base.ITLBEntries <= 0 || base.DTLBEntries <= 0 {
		return nil, fmt.Errorf("cache: L2SpaceSim: non-positive TLB entries")
	}
	s := &L2SpaceSim{l2Block: l2s[0].BlockBytes, bySets: make(map[int64]int)}
	var err error
	if s.il1, err = New(base.IL1); err != nil {
		return nil, err
	}
	if s.dl1, err = New(base.DL1); err != nil {
		return nil, err
	}
	if s.itlb, err = NewTLB(base.ITLBEntries, base.PageBytes); err != nil {
		return nil, err
	}
	if s.dtlb, err = NewTLB(base.DTLBEntries, base.PageBytes); err != nil {
		return nil, err
	}
	setCounts := map[int64]bool{}
	for _, l2 := range l2s {
		if err := l2.Validate(); err != nil {
			return nil, err
		}
		if l2.BlockBytes != s.l2Block {
			return nil, fmt.Errorf("cache: L2SpaceSim: mixed L2 block sizes %d and %d",
				s.l2Block, l2.BlockBytes)
		}
		setCounts[l2.Sets()] = true
	}
	// Deterministic simulator order (stats are order-independent, but
	// determinism keeps memory layout and profiles stable).
	ordered := make([]int64, 0, len(setCounts))
	for sc := range setCounts {
		ordered = append(ordered, sc)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, sc := range ordered {
		s.bySets[sc] = len(s.sims)
		s.sims = append(s.sims, NewWBStackSim(sc, s.l2Block))
	}
	s.warmOK = base.IL1.BlockBytes <= base.PageBytes && base.DL1.BlockBytes <= base.PageBytes
	return s, nil
}

// l2Access presents one reference to every set-count simulator. With
// depths non-nil (annotation mode) it records each simulator's stack
// depth into depths.
func (s *L2SpaceSim) l2Access(byteAddr int64, class StreamClass, write bool, depths []int32) {
	if depths == nil {
		for _, sim := range s.sims {
			sim.Access(byteAddr, class, write)
		}
		return
	}
	for k, sim := range s.sims {
		depths[k] = int32(sim.Access(byteAddr, class, write))
	}
}

// planeGeom is one recorded L2 geometry: which shared simulator
// resolves it and at what associativity, plus the plane being built
// and its chunk under construction.
type planeGeom struct {
	sim  int // index into sims
	ways int32
	b    *trace.BytePlaneBuilder
	cur  []uint8
}

// RecordPlanes switches the engine into annotation mode: from now on
// every consumed instruction appends one memory-event class byte (see
// trace.Ann* bits) to a plane per candidate L2 geometry. The front
// outcomes (TLB and L1 bits) are shared across geometries; the
// per-geometry L2 bits are decided by the reference's stack depth in
// the geometry's set-count simulator (hit iff depth < ways). It is an
// error to call it after the engine has consumed input (the planes
// would be shorter than the trace) or more than once.
func (s *L2SpaceSim) RecordPlanes(l2s []Config) error {
	if s.iDepths != nil {
		return fmt.Errorf("cache: L2SpaceSim: RecordPlanes called twice")
	}
	if s.n > 0 {
		return fmt.Errorf("cache: L2SpaceSim: RecordPlanes after %d instructions were consumed", s.n)
	}
	type key struct {
		sim  int
		ways int32
	}
	seen := make(map[key]bool)
	var rec []planeGeom
	for _, l2 := range l2s {
		if err := l2.Validate(); err != nil {
			return err
		}
		if l2.BlockBytes != s.l2Block {
			return fmt.Errorf("cache: L2SpaceSim: block size %d not simulated (engine uses %d)",
				l2.BlockBytes, s.l2Block)
		}
		k, ok := s.bySets[l2.Sets()]
		if !ok {
			return fmt.Errorf("cache: L2SpaceSim: set count %d not simulated", l2.Sets())
		}
		id := key{sim: k, ways: int32(l2.Ways)}
		if seen[id] {
			continue
		}
		seen[id] = true
		rec = append(rec, planeGeom{sim: k, ways: int32(l2.Ways), b: trace.NewBytePlaneBuilder()})
	}
	s.rec = rec
	s.iDepths = make([]int32, len(s.sims))
	s.dDepths = make([]int32, len(s.sims))
	return nil
}

// PlaneFor returns the recorded annotation plane of one L2 geometry.
func (s *L2SpaceSim) PlaneFor(l2 Config) (*trace.BytePlane, error) {
	if err := l2.Validate(); err != nil {
		return nil, err
	}
	k, ok := s.bySets[l2.Sets()]
	if !ok {
		return nil, fmt.Errorf("cache: L2SpaceSim: set count %d not simulated", l2.Sets())
	}
	for _, g := range s.rec {
		if g.sim == k && g.ways == int32(l2.Ways) {
			return g.b.Plane(), nil
		}
	}
	return nil, fmt.Errorf("cache: L2SpaceSim: geometry %dKB/%dw not recorded", l2.SizeBytes/1024, l2.Ways)
}

// ConsumeChunk advances the engine over one trace chunk, mirroring
// Hierarchy's access sequence exactly: per instruction the I-fetch
// first, then (for loads/stores) the dirty L1 victim's L2 writeback,
// then the demand data access. It reads the chunk's columns directly:
// PC and flags from the dictionary, addresses from the Addr column
// with a running index. In annotation mode it takes one zeroed chunk
// per recorded geometry from that geometry's plane builder and writes
// only the instructions whose event byte is non-zero.
func (s *L2SpaceSim) ConsumeChunk(ck *trace.Columns) {
	s.n += int64(ck.N)
	for i := range s.rec {
		s.rec[i].cur = s.rec[i].b.AppendChunk(ck.N)
	}
	// The warm state and the warm-hit counts live in locals for the
	// chunk: a warm access only bumps access counters, so they are
	// credited once at the end.
	il1Shift, dl1Shift := s.il1.blkShift, s.dl1.blkShift
	iWarm, lastITag := s.iWarm, s.lastITag
	dWarm, dDirty, lastDTag := s.dWarm, s.dDirty, s.lastDTag
	var iWarmHits, dWarmHits int64
	k := 0 // running index into ck.Addr
	for j, id := range ck.ID[:ck.N] {
		st := &ck.Static[id]
		var front uint8 // shared TLB/L1 outcome bits of this instruction
		il1Miss, dl1Miss := false, false

		byteAddr := int64(st.PC) * InstrBytes
		if tag := byteAddr >> il1Shift; iWarm && tag == lastITag {
			iWarmHits++
		} else {
			tlbHit := s.itlb.Access(byteAddr)
			if !tlbHit {
				s.fixed.ITLBMisses++
				front |= trace.AnnITLBMiss
			}
			s.fixed.IL1Accesses++
			hit, _, _ := s.il1.Access(byteAddr, false)
			if !hit {
				s.fixed.IL1Misses++
				front |= trace.AnnIL1Miss
				il1Miss = true
				s.l2Access(byteAddr, StreamInstr, false, s.iDepths)
			}
			lastITag = tag
			iWarm = s.warmOK && hit && tlbHit
			if front != 0 {
				s.iStalls++
			}
		}

		if fl := st.Flags; fl&trace.FlagMem != 0 {
			write := fl&trace.FlagStore != 0
			byteAddr = int64(ck.Addr[k]) * WordBytes
			k++
			if tag := byteAddr >> dl1Shift; dWarm && tag == lastDTag && (dDirty || !write) {
				dWarmHits++
			} else {
				tlbHit := s.dtlb.Access(byteAddr)
				if !tlbHit {
					s.fixed.DTLBMisses++
					front |= trace.AnnDTLBMiss
				}
				s.fixed.DL1Accesses++
				hit, wb, victim := s.dl1.Access(byteAddr, write)
				if wb {
					s.l2Access(victim, StreamWriteback, true, nil)
				}
				if !hit {
					s.fixed.DL1Misses++
					front |= trace.AnnDL1Miss
					dl1Miss = true
					class := StreamStore
					if !write {
						s.fixed.DL1LoadMisses++
						class = StreamLoad
					}
					s.l2Access(byteAddr, class, write, s.dDepths)
				}
				lastDTag = tag
				dWarm = s.warmOK && hit && tlbHit
				dDirty = write
			}
		}

		// A zero byte (every access hit) is already in the plane, and
		// the L2 bits are only ever set behind an L1 miss.
		if front == 0 {
			continue
		}
		for i := range s.rec {
			g := &s.rec[i]
			b := front
			if il1Miss && s.iDepths[g.sim] >= g.ways {
				b |= trace.AnnIL2Miss
			}
			if dl1Miss && s.dDepths[g.sim] >= g.ways {
				b |= trace.AnnDL2Miss
			}
			g.cur[j] = b
		}
	}
	s.iWarm, s.lastITag = iWarm, lastITag
	s.dWarm, s.dDirty, s.lastDTag = dWarm, dDirty, lastDTag
	s.fixed.IL1Accesses += iWarmHits
	s.il1.Accesses += iWarmHits
	s.itlb.Accesses += iWarmHits
	s.fixed.DL1Accesses += dWarmHits
	s.dl1.Accesses += dWarmHits
	s.dtlb.Accesses += dWarmHits
}

// IStallEvents returns the number of instruction fetches that stalled
// on a TLB or L1-I miss. The detailed pipeline simulator performs one
// extra (hitting) hierarchy access per such event when fetch resumes,
// so its reported IL1Accesses exceeds the program-order count by
// exactly this number.
func (s *L2SpaceSim) IStallEvents() int64 { return s.iStalls }

// StatsFor reconstructs the full Stats a Hierarchy with the fixed
// front and the given L2 would have collected over the same stream.
func (s *L2SpaceSim) StatsFor(l2 Config) (Stats, error) {
	if err := l2.Validate(); err != nil {
		return Stats{}, err
	}
	if l2.BlockBytes != s.l2Block {
		return Stats{}, fmt.Errorf("cache: L2SpaceSim: block size %d not simulated (engine uses %d)",
			l2.BlockBytes, s.l2Block)
	}
	i, ok := s.bySets[l2.Sets()]
	if !ok {
		return Stats{}, fmt.Errorf("cache: L2SpaceSim: set count %d not simulated", l2.Sets())
	}
	sim := s.sims[i]
	out := s.fixed
	out.IL2Misses = sim.ClassMisses(StreamInstr, l2.Ways)
	out.DL2LoadMisses = sim.ClassMisses(StreamLoad, l2.Ways)
	out.DL2Misses = out.DL2LoadMisses + sim.ClassMisses(StreamStore, l2.Ways)
	out.Writebacks = sim.Writebacks(l2.Ways)
	return out, nil
}
