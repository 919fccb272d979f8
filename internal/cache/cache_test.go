package cache

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace/tracetest"
)

func cfg(sizeBytes int64, ways int, block int64) Config {
	return Config{Name: "t", SizeBytes: sizeBytes, Ways: ways, BlockBytes: block}
}

func TestConfigValidate(t *testing.T) {
	good := cfg(1024, 2, 64)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		cfg(0, 2, 64),
		cfg(1024, 0, 64),
		cfg(1024, 2, 0),
		cfg(1000, 2, 64), // size not divisible
		cfg(1024, 2, 48), // block not power of two
		cfg(64*3, 1, 64), // 3 sets, not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config %+v accepted", c)
		}
	}
	if good.Sets() != 8 {
		t.Errorf("Sets = %d, want 8", good.Sets())
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// 2 sets, direct mapped, 64 B blocks: addresses 0 and 128 conflict.
	c := MustNew(cfg(128, 1, 64))
	access := func(a int64) bool { h, _, _ := c.Access(a, false); return h }
	if access(0) {
		t.Error("cold access hit")
	}
	if !access(0) {
		t.Error("re-access missed")
	}
	if access(128) {
		t.Error("conflicting cold access hit")
	}
	if access(0) {
		t.Error("evicted block still resident")
	}
	if access(64) {
		t.Error("other set affected")
	}
	if c.Misses != 4 || c.Accesses != 5 {
		t.Errorf("misses=%d accesses=%d, want 4/5", c.Misses, c.Accesses)
	}
}

func TestLRUOrder(t *testing.T) {
	// One set, 2-way: A, B, A, C should evict B (LRU), not A.
	c := MustNew(cfg(128, 2, 64))
	addrs := map[string]int64{"A": 0, "B": 128, "C": 256}
	for _, k := range []string{"A", "B", "A", "C"} {
		c.Access(addrs[k], false)
	}
	if !c.Contains(addrs["A"]) {
		t.Error("A evicted despite being MRU")
	}
	if c.Contains(addrs["B"]) {
		t.Error("B not evicted despite being LRU")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := MustNew(cfg(64, 1, 64)) // single line
	c.Access(0, true)            // write-allocate, dirty
	_, wb, victim := c.Access(64, false)
	if !wb {
		t.Error("dirty eviction did not report writeback")
	}
	if victim != 0 {
		t.Errorf("victim address = %d, want 0", victim)
	}
	_, wb, _ = c.Access(128, false) // evicts clean block 64
	if wb {
		t.Error("clean eviction reported writeback")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := MustNew(cfg(128, 2, 64))
	c.Access(0, false)
	c.Access(128, false)
	// 0 is LRU; Contains must not promote it.
	if !c.Contains(0) {
		t.Fatal("Contains(0) = false")
	}
	c.Access(256, false) // evicts LRU
	if c.Contains(0) {
		t.Error("Contains promoted the probed block")
	}
}

func TestMissRateAndReset(t *testing.T) {
	c := MustNew(cfg(128, 2, 64))
	if c.MissRate() != 0 {
		t.Error("miss rate of untouched cache not 0")
	}
	c.Access(0, false)
	c.Access(0, false)
	if c.MissRate() != 0.5 {
		t.Errorf("miss rate = %f, want 0.5", c.MissRate())
	}
	c.Reset()
	if c.Accesses != 0 || c.Misses != 0 || c.Contains(0) {
		t.Error("Reset did not clear state")
	}
}

func TestTLB(t *testing.T) {
	tlb := MustNewTLB(2, 4096)
	if tlb.Access(0) {
		t.Error("cold TLB access hit")
	}
	if !tlb.Access(100) { // same page
		t.Error("same-page access missed")
	}
	tlb.Access(4096) // second page
	tlb.Access(8192) // third page evicts page 0 (LRU)
	if tlb.Access(0) {
		t.Error("evicted page still mapped")
	}
	if tlb.MissRate() <= 0 {
		t.Error("miss rate not positive")
	}
	tlb.Reset()
	if tlb.Accesses != 0 || tlb.Access(0) {
		t.Error("Reset did not clear TLB")
	}
}

func TestTLBRejectsBadConfig(t *testing.T) {
	if _, err := NewTLB(0, 4096); err == nil {
		t.Error("zero-entry TLB accepted")
	}
	if _, err := NewTLB(4, 1000); err == nil {
		t.Error("non-power-of-two page accepted")
	}
}

// TestStackSimMatchesExactCaches is the key single-pass property: for a
// fixed set count and block size, one stack-distance pass must predict
// the exact miss count of real LRU caches at every associativity.
func TestStackSimMatchesExactCaches(t *testing.T) {
	const (
		sets  = 16
		block = 64
	)
	rng := rand.New(rand.NewSource(42))
	ss := NewWBStackSim(sets, block, 8)
	caches := map[int]*Cache{}
	for _, ways := range []int{1, 2, 4, 8} {
		caches[ways] = MustNew(cfg(sets*int64(ways)*block, ways, block))
	}
	for i := 0; i < 20000; i++ {
		addr := int64(rng.Intn(400)) * block / 2 // overlapping, reused blocks
		ss.Access(addr, StreamLoad, false)
		for _, c := range caches {
			c.Access(addr, false)
		}
	}
	for ways, c := range caches {
		if got, want := ss.MissesFor(ways), c.Misses; got != want {
			t.Errorf("assoc %d: stack-distance misses %d, exact %d", ways, got, want)
		}
		if got := ss.ClassAccesses(StreamLoad); got != c.Accesses {
			t.Errorf("assoc %d: accesses %d, exact %d", ways, got, c.Accesses)
		}
	}
}

func TestStackSimMonotoneInAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ss := NewWBStackSim(4, 64, 16)
		for i := 0; i < 500; i++ {
			class := StreamClass(rng.Intn(int(NumStreamClasses)))
			ss.Access(int64(rng.Intn(64))*64, class, class == StreamStore || class == StreamWriteback)
		}
		prev := ss.MissesFor(1)
		for a := 2; a <= 16; a++ {
			m := ss.MissesFor(a)
			if m > prev {
				return false // more ways can never mean more misses (LRU inclusion)
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyCounts(t *testing.T) {
	h := MustNewHierarchy(HierarchyConfig{
		IL1:         cfg(128, 1, 64),
		DL1:         cfg(128, 1, 64),
		L2:          cfg(1024, 2, 64),
		ITLBEntries: 2, DTLBEntries: 2, PageBytes: 4096,
	})
	// Data access to word 0: DL1 miss, L2 miss, DTLB miss.
	r := h.AccessD(0, false)
	if r.L1Hit || r.L2Hit || r.TLBHit {
		t.Errorf("cold access results: %+v", r)
	}
	// Re-access: all hits.
	r = h.AccessD(1, false) // same 64 B block (words 4 B)
	if !r.L1Hit || !r.TLBHit {
		t.Errorf("warm access results: %+v", r)
	}
	s := h.S
	if s.DL1Accesses != 2 || s.DL1Misses != 1 || s.DL2Misses != 1 || s.DTLBMisses != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.DL1LoadMisses != 1 {
		t.Errorf("load-miss split: %+v", s)
	}
	// Instruction fetch.
	h.AccessI(0)
	h.AccessI(1)
	if h.S.IL1Accesses != 2 || h.S.IL1Misses != 1 {
		t.Errorf("I-side stats: %+v", h.S)
	}
	h.Reset()
	if h.S != (Stats{}) {
		t.Error("Reset did not clear stats")
	}
}

func TestHierarchyL1MissL2Hit(t *testing.T) {
	// DL1 is tiny (1 line), L2 holds both blocks: the second round of
	// accesses must miss L1 but hit L2.
	h := MustNewHierarchy(HierarchyConfig{
		IL1:         cfg(64, 1, 64),
		DL1:         cfg(64, 1, 64),
		L2:          cfg(4096, 4, 64),
		ITLBEntries: 8, DTLBEntries: 8, PageBytes: 4096,
	})
	h.AccessD(0, false)  // cold: miss both
	h.AccessD(16, false) // conflicting block (64 B apart = word 16): evicts
	r := h.AccessD(0, false)
	if r.L1Hit {
		t.Error("expected L1 miss")
	}
	if !r.L2Hit {
		t.Error("expected L2 hit")
	}
}

func TestWritebackGoesToVictimLine(t *testing.T) {
	// Single-line L1; write block A, then read conflicting block B.
	// The dirty writeback must touch A's line in L2, making A an L2
	// hit later even if it was never explicitly filled... it was filled
	// on the initial miss; instead verify Writebacks counting only.
	h := MustNewHierarchy(HierarchyConfig{
		IL1:         cfg(64, 1, 64),
		DL1:         cfg(64, 1, 64),
		L2:          cfg(128, 1, 64), // 2 sets direct-mapped
		ITLBEntries: 8, DTLBEntries: 8, PageBytes: 4096,
	})
	h.AccessD(0, true)   // dirty in L1
	h.AccessD(16, false) // evicts dirty block 0 -> writeback into L2 set 0
	// Block 0 must still be resident in L2 (refreshed by writeback).
	if !h.L2c.Contains(0) {
		t.Error("victim block lost from L2 after writeback")
	}
}

// TestMultiCollectorMatchesIndividual pins the single-pass engine
// against one dedicated Hierarchy per L2 of a shared front.
func TestMultiCollectorMatchesIndividual(t *testing.T) {
	front := HierarchyConfig{IL1: cfg(128, 1, 64), DL1: cfg(128, 1, 64),
		ITLBEntries: 2, DTLBEntries: 2, PageBytes: 4096}
	l2s := []Config{cfg(1024, 2, 64), cfg(2048, 2, 64), cfg(2048, 4, 64)}
	eng, err := NewL2SpaceSim(withL2s(front, l2s))
	if err != nil {
		t.Fatal(err)
	}
	ind := make([]*Hierarchy, len(l2s))
	for i, l2 := range l2s {
		h := front
		h.L2 = l2
		ind[i] = MustNewHierarchy(h)
	}
	rng := rand.New(rand.NewSource(7))
	ds := make([]tracetest.Inst, 5000)
	for i := range ds {
		ds[i] = randomMemInst(rng, int64(i))
	}
	tr := tracetest.Of(ds...)
	if err := tr.EachChunk(context.Background(), eng.ConsumeChunk); err != nil {
		t.Fatal(err)
	}
	for _, h := range ind {
		if err := tr.EachChunk(context.Background(), h.ConsumeChunk); err != nil {
			t.Fatal(err)
		}
	}
	for i, l2 := range l2s {
		s, err := eng.StatsFor(withL2(front, l2))
		if err != nil {
			t.Fatal(err)
		}
		if s != ind[i].S {
			t.Errorf("config %d: single-pass %+v != individual %+v", i, s, ind[i].S)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(cfg(100, 3, 64)); err == nil {
		t.Error("invalid cache accepted")
	}
	if _, err := NewHierarchy(HierarchyConfig{}); err == nil {
		t.Error("zero hierarchy accepted")
	}
	if _, err := NewL2SpaceSim([]HierarchyConfig{{}}); err == nil {
		t.Error("single-pass engine with bad config accepted")
	}
}

// randomMemInst builds a plausible dynamic instruction for collector
// tests: sequential PCs, mixed loads/stores over a modest footprint.
func randomMemInst(rng *rand.Rand, seq int64) tracetest.Inst {
	d := tracetest.Inst{Seq: seq, PC: seq % 500}
	switch rng.Intn(3) {
	case 0:
		d.IsLoad = true
		d.EffAddr = int64(rng.Intn(3000))
	case 1:
		d.IsStore = true
		d.EffAddr = int64(rng.Intn(3000))
	}
	return d
}
