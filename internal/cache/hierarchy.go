package cache

import (
	"fmt"

	"repro/internal/trace"
)

// InstrBytes is the size of one instruction in instruction memory;
// static instruction index i lives at byte address i*InstrBytes.
const InstrBytes = 4

// WordBytes is the size of one data word; data word address a lives at
// byte address a*WordBytes.
const WordBytes = 4

// HierarchyConfig describes a two-level hierarchy with split L1 caches,
// a unified L2 and split TLBs.
type HierarchyConfig struct {
	IL1, DL1, L2 Config
	ITLBEntries  int
	DTLBEntries  int
	PageBytes    int64
}

// Validate checks all components.
func (h HierarchyConfig) Validate() error {
	for _, c := range []Config{h.IL1, h.DL1, h.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if h.ITLBEntries <= 0 || h.DTLBEntries <= 0 {
		return fmt.Errorf("hierarchy: non-positive TLB entries")
	}
	if h.PageBytes <= 0 || h.PageBytes&(h.PageBytes-1) != 0 {
		return fmt.Errorf("hierarchy: bad page size %d", h.PageBytes)
	}
	return nil
}

// Front reduces h to its front: everything but the L2 geometry, of
// which only the block size stays. Hierarchies with one front differ
// only in their L2, so they see one L2 input stream (see L2SpaceSim).
func (h HierarchyConfig) Front() HierarchyConfig {
	h.L2 = Config{BlockBytes: h.L2.BlockBytes}
	return h
}

// Result reports the outcome of one hierarchy access.
type Result struct {
	L1Hit    bool
	L2Hit    bool // meaningful only when !L1Hit
	TLBHit   bool
	NewBlock bool // first touch of the L1 block since the previous fill
}

// Stats aggregates hierarchy event counts, split by reference type.
type Stats struct {
	IL1Accesses   int64
	IL1Misses     int64 // L1-I misses (block fills)
	IL2Misses     int64 // of those, also missed in L2
	DL1Accesses   int64
	DL1Misses     int64 // L1-D misses (loads+stores)
	DL2Misses     int64 // of those, also missed in L2
	DL1LoadMisses int64 // load subset of DL1Misses
	DL2LoadMisses int64 // load subset of DL2Misses
	ITLBMisses    int64
	DTLBMisses    int64
	Writebacks    int64
}

// Hierarchy simulates the full memory system.
type Hierarchy struct {
	Cfg  HierarchyConfig
	IL1c *Cache
	DL1c *Cache
	L2c  *Cache
	ITLB *TLB
	DTLB *TLB

	S Stats

	// Same-block fast path: a re-access to the most recent block is a
	// pure counter bump when that access hit everywhere, because
	// re-touching the MRU line of a set and the MRU page of a TLB
	// leaves all replacement state exactly as it was. Valid only while
	// blocks are no larger than pages (warmOK).
	warmOK   bool
	iWarm    bool  // last I-access hit L1 and ITLB
	lastITag int64 // last I-access block address
	dWarm    bool  // last D-access hit DL1 and DTLB
	dDirty   bool  // ... and left the block dirty
	lastDTag int64 // last D-access block address
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{Cfg: cfg}
	// One backing array for all three caches' lines: a hierarchy is
	// built per detailed simulation, so allocation count matters.
	backing := make([]line, lineCount(cfg.IL1)+lineCount(cfg.DL1)+lineCount(cfg.L2))
	var err error
	if h.IL1c, err = newWithBacking(cfg.IL1, backing); err != nil {
		return nil, err
	}
	backing = backing[lineCount(cfg.IL1):]
	if h.DL1c, err = newWithBacking(cfg.DL1, backing); err != nil {
		return nil, err
	}
	backing = backing[lineCount(cfg.DL1):]
	if h.L2c, err = newWithBacking(cfg.L2, backing); err != nil {
		return nil, err
	}
	if h.ITLB, err = NewTLB(cfg.ITLBEntries, cfg.PageBytes); err != nil {
		return nil, err
	}
	if h.DTLB, err = NewTLB(cfg.DTLBEntries, cfg.PageBytes); err != nil {
		return nil, err
	}
	h.warmOK = cfg.IL1.BlockBytes <= cfg.PageBytes && cfg.DL1.BlockBytes <= cfg.PageBytes
	return h, nil
}

// MustNewHierarchy is NewHierarchy that panics on error.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// AccessIWarm is the inlinable same-block fast path of AccessI: if the
// fetch of pc touches the block of the previous all-hit I-access, no
// replacement state can change, so only the counters are bumped and
// the access is a guaranteed L1+TLB hit. It reports false when the
// caller must take the full AccessI path.
func (h *Hierarchy) AccessIWarm(pc int64) bool {
	if !h.iWarm || (pc*InstrBytes)>>h.IL1c.blkShift != h.lastITag {
		return false
	}
	h.S.IL1Accesses++
	h.IL1c.Accesses++
	h.ITLB.Accesses++
	return true
}

// IWarmHit reports whether fetching pc repeats the last all-hit
// I-access block: a guaranteed L1+TLB hit that changes no state. A
// caller on a hot loop batches such fetches and accounts them at the
// end with CreditIWarm(count) instead of bumping counters per fetch.
func (h *Hierarchy) IWarmHit(pc int64) bool {
	return h.iWarm && (pc*InstrBytes)>>h.IL1c.blkShift == h.lastITag
}

// CreditIWarm accounts n batched warm I-fetches (see IWarmHit).
func (h *Hierarchy) CreditIWarm(n int64) {
	h.S.IL1Accesses += n
	h.IL1c.Accesses += n
	h.ITLB.Accesses += n
}

// AccessI performs an instruction fetch of the instruction at static
// index pc.
func (h *Hierarchy) AccessI(pc int64) Result {
	if h.AccessIWarm(pc) {
		return Result{L1Hit: true, TLBHit: true}
	}
	byteAddr := pc * InstrBytes
	var r Result
	r.TLBHit = h.ITLB.Access(byteAddr)
	if !r.TLBHit {
		h.S.ITLBMisses++
	}
	h.S.IL1Accesses++
	hit, _, _ := h.IL1c.Access(byteAddr, false)
	r.L1Hit = hit
	if !hit {
		h.S.IL1Misses++
		l2hit, wb, _ := h.L2c.Access(byteAddr, false)
		r.L2Hit = l2hit
		if wb {
			h.S.Writebacks++
		}
		if !l2hit {
			h.S.IL2Misses++
		}
	}
	h.lastITag = byteAddr >> h.IL1c.blkShift
	h.iWarm = h.warmOK && r.L1Hit && r.TLBHit
	return r
}

// AccessDWarm is AccessIWarm's data-side counterpart. A write
// additionally requires the block to already be dirty, otherwise the
// full path must set its dirty bit.
func (h *Hierarchy) AccessDWarm(addr int64, write bool) bool {
	if !h.dWarm || (addr*WordBytes)>>h.DL1c.blkShift != h.lastDTag || (write && !h.dDirty) {
		return false
	}
	h.S.DL1Accesses++
	h.DL1c.Accesses++
	h.DTLB.Accesses++
	return true
}

// AccessD performs a data access to word address addr.
func (h *Hierarchy) AccessD(addr int64, write bool) Result {
	if h.AccessDWarm(addr, write) {
		return Result{L1Hit: true, TLBHit: true}
	}
	byteAddr := addr * WordBytes
	var r Result
	r.TLBHit = h.DTLB.Access(byteAddr)
	if !r.TLBHit {
		h.S.DTLBMisses++
	}
	h.S.DL1Accesses++
	hit, wb1, victim := h.DL1c.Access(byteAddr, write)
	if wb1 {
		// Dirty L1 victim written back into its own L2 line.
		if _, wb2, _ := h.L2c.Access(victim, true); wb2 {
			h.S.Writebacks++
		}
	}
	r.L1Hit = hit
	if !hit {
		h.S.DL1Misses++
		if !write {
			h.S.DL1LoadMisses++
		}
		l2hit, wb, _ := h.L2c.Access(byteAddr, write)
		r.L2Hit = l2hit
		if wb {
			h.S.Writebacks++
		}
		if !l2hit {
			h.S.DL2Misses++
			if !write {
				h.S.DL2LoadMisses++
			}
		}
	}
	h.lastDTag = byteAddr >> h.DL1c.blkShift
	h.dWarm = h.warmOK && r.L1Hit && r.TLBHit
	// After a write the block is certainly dirty; after a read hit it
	// may be dirty from before, but assuming clean only routes the
	// next write through the full path (which re-marks it dirty).
	h.dDirty = write
	return r
}

// Reset clears contents and statistics.
func (h *Hierarchy) Reset() {
	h.IL1c.Reset()
	h.DL1c.Reset()
	h.L2c.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.S = Stats{}
	h.iWarm, h.dWarm, h.dDirty = false, false, false
	h.lastITag, h.lastDTag = 0, 0
}

// ConsumeChunk is the profiling step over one trace chunk: every
// instruction performs an I-fetch, and each load or store then
// accesses the data side, in trace order.
func (h *Hierarchy) ConsumeChunk(ck *trace.Columns) {
	k := 0
	for j := 0; j < ck.N; j++ {
		s := ck.Tuple(j)
		h.AccessI(int64(s.PC))
		if s.Flags&trace.FlagMem != 0 {
			h.AccessD(int64(ck.Addr[k]), s.Flags&trace.FlagLoad == 0)
			k++
		}
	}
}
