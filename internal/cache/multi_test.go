package cache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// table2L2s returns the eight Table 2 L2 geometries (4 sizes × 2
// associativities, 64 B blocks).
func table2L2s() []Config {
	var out []Config
	for _, sizeKB := range []int64{128, 256, 512, 1024} {
		for _, ways := range []int{8, 16} {
			out = append(out, Config{Name: "l2", SizeBytes: sizeKB * 1024, Ways: ways, BlockBytes: 64})
		}
	}
	return out
}

// withL2 returns front completed with the L2 l2.
func withL2(front HierarchyConfig, l2 Config) HierarchyConfig {
	front.L2 = l2
	return front
}

// withL2s returns one hierarchy per L2 of l2s behind front.
func withL2s(front HierarchyConfig, l2s []Config) []HierarchyConfig {
	out := make([]HierarchyConfig, len(l2s))
	for i, l2 := range l2s {
		out[i] = withL2(front, l2)
	}
	return out
}

func testFront() HierarchyConfig {
	return HierarchyConfig{
		IL1:         Config{Name: "il1", SizeBytes: 2048, Ways: 2, BlockBytes: 64},
		DL1:         Config{Name: "dl1", SizeBytes: 2048, Ways: 2, BlockBytes: 64},
		ITLBEntries: 4, DTLBEntries: 4, PageBytes: 4096,
	}
}

// randTrace synthesizes a dynamic instruction stream with clustered,
// reused addresses so that all of L1 hits, L2 hits, L2 misses, dirty
// evictions and TLB misses occur.
func randTrace(rng *rand.Rand, n int) []tracetest.Inst {
	tr := make([]tracetest.Inst, n)
	pc := int64(0)
	for i := range tr {
		d := &tr[i]
		d.Seq = int64(i)
		d.PC = pc
		switch rng.Intn(8) {
		case 0: // jump to a random region: spreads the I-stream
			pc = int64(rng.Intn(8)) * 512
		default:
			pc++
		}
		switch rng.Intn(4) {
		case 0:
			d.IsLoad = true
			d.EffAddr = int64(rng.Intn(6000)) * 16 // word addresses, 64 B blocks collide
		case 1:
			d.IsStore = true
			d.EffAddr = int64(rng.Intn(6000)) * 16
		}
	}
	return tr
}

// TestL2SpaceSimMatchesHierarchy is the tentpole equivalence property:
// for every Table 2 L2 geometry, the single-pass engine walking the
// trace's chunks must reconstruct the exact Stats and plane a
// dedicated Hierarchy replay collects — including the load/store miss
// split and dirty writeback counts.
func TestL2SpaceSimMatchesHierarchy(t *testing.T) {
	front := testFront()
	l2s := table2L2s()
	// A smaller L2 set than Table 2 exercises capacity pressure harder.
	l2s = append(l2s,
		Config{Name: "l2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64},
		Config{Name: "l2", SizeBytes: 32 * 1024, Ways: 16, BlockBytes: 64},
		Config{Name: "l2", SizeBytes: 8 * 1024, Ways: 1, BlockBytes: 64},
	)
	// Several fronts with one block size share stacks across set
	// counts, where a read on top of its set in the stack with the
	// fewest sets skips every stack.
	var shared []HierarchyConfig
	for _, f := range fuzzFronts()[:4] {
		shared = append(shared, withL2s(f, l2s[len(l2s)-3:])...)
	}
	for _, seed := range []int64{1, 7, 42} {
		tr := tracetest.Of(randTrace(rand.New(rand.NewSource(seed)), 60000)...)
		checkL2SpaceSim(t, withL2s(front, l2s), tr)
		checkL2SpaceSim(t, shared, tr)
	}
}

// recordedEngine runs a recording L2SpaceSim for hiers over tr's
// chunks.
func recordedEngine(t *testing.T, hiers []HierarchyConfig, tr *trace.Trace) *L2SpaceSim {
	t.Helper()
	eng, err := NewL2SpaceSim(hiers)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RecordPlanes(hiers); err != nil {
		t.Fatal(err)
	}
	if err := tr.EachChunk(context.Background(), eng.ConsumeChunk); err != nil {
		t.Fatal(err)
	}
	return eng
}

// hierarchyOracle replays tr one record at a time through a dedicated
// Hierarchy, as Hierarchy.ConsumeChunk does, and derives each instruction's
// memory-event class byte from the AccessIWarm/AccessI and
// AccessDWarm/AccessD results. It returns the classes, the Hierarchy's
// statistics and the number of fetches that missed a TLB or L1.
func hierarchyOracle(cfg HierarchyConfig, tr *trace.Trace) (classes []uint8, st Stats, iStalls int64) {
	h := MustNewHierarchy(cfg)
	tracetest.Each(tr, func(d *tracetest.Inst) {
		var b uint8
		if !h.AccessIWarm(d.PC) {
			r := h.AccessI(d.PC)
			if !r.TLBHit {
				b |= trace.AnnITLBMiss
			}
			if !r.L1Hit {
				b |= trace.AnnIL1Miss
				if !r.L2Hit {
					b |= trace.AnnIL2Miss
				}
			}
			if b != 0 {
				iStalls++
			}
		}
		if write := d.IsStore; (d.IsLoad || write) && !h.AccessDWarm(d.EffAddr, write) {
			r := h.AccessD(d.EffAddr, write)
			if !r.TLBHit {
				b |= trace.AnnDTLBMiss
			}
			if !r.L1Hit {
				b |= trace.AnnDL1Miss
				if !r.L2Hit {
					b |= trace.AnnDL2Miss
				}
			}
		}
		classes = append(classes, b)
	})
	return classes, h.S, iStalls
}

// checkL2SpaceSim checks one recording engine for hiers over tr
// against a dedicated Hierarchy per hierarchy: every plane byte,
// StatsFor and IStallEvents.
func checkL2SpaceSim(t *testing.T, hiers []HierarchyConfig, tr *trace.Trace) {
	t.Helper()
	eng := recordedEngine(t, hiers, tr)
	for _, h := range hiers {
		name := fmt.Sprintf("%s %s %s", h.IL1, h.DL1, h.L2)
		classes, want, iStalls := hierarchyOracle(h, tr)
		got, err := eng.StatsFor(h)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: single-pass stats diverge\n got  %+v\n want %+v", name, got, want)
		}
		if got, err := eng.IStallEvents(h); err != nil || got != iStalls {
			t.Errorf("%s: %d I-side stalls (%v), hierarchy has %d", name, got, err, iStalls)
		}
		plane, err := eng.PlaneFor(h)
		if err != nil {
			t.Fatal(err)
		}
		if plane.Len() != tr.Len() {
			t.Fatalf("%s: plane covers %d instructions, trace has %d", name, plane.Len(), tr.Len())
		}
		for i, want := range classes {
			if got := plane.At(int64(i)); got != want {
				t.Fatalf("%s: instruction %d has class %#x, hierarchy derives %#x", name, i, got, want)
			}
		}
	}
}

// TestWBStackSimMatchesExactCaches extends the classic stack-distance
// equivalence to the class/writeback-aware simulator: per-class miss
// counts and writeback counts must match real write-back LRU caches at
// every associativity.
func TestWBStackSimMatchesExactCaches(t *testing.T) {
	const (
		sets  = 16
		block = 64
	)
	type shadow struct {
		c      *Cache
		wb     int64
		misses [NumStreamClasses]int64
	}
	rng := rand.New(rand.NewSource(99))
	ss := NewWBStackSim(sets, block, 16)
	shadows := map[int]*shadow{}
	for _, ways := range []int{1, 2, 4, 8, 16} {
		shadows[ways] = &shadow{c: MustNew(Config{
			Name: "t", SizeBytes: sets * int64(ways) * block, Ways: ways, BlockBytes: block,
		})}
	}
	for i := 0; i < 40000; i++ {
		addr := int64(rng.Intn(500)) * block / 2
		class := StreamClass(rng.Intn(int(NumStreamClasses)))
		write := class == StreamStore || class == StreamWriteback
		ss.Access(addr, class, write)
		for _, sh := range shadows {
			hit, wb, _ := sh.c.Access(addr, write)
			if !hit {
				sh.misses[class]++
			}
			if wb {
				sh.wb++
			}
		}
	}
	for ways, sh := range shadows {
		for c := StreamClass(0); c < NumStreamClasses; c++ {
			if got, want := ss.ClassMisses(c, ways), sh.misses[c]; got != want {
				t.Errorf("assoc %d class %d: stack misses %d, exact %d", ways, c, got, want)
			}
		}
		if got := ss.MissesFor(ways); got != sh.c.Misses {
			t.Errorf("assoc %d: total stack misses %d, exact %d", ways, got, sh.c.Misses)
		}
		if got, want := ss.Writebacks(ways), sh.wb; got != want {
			t.Errorf("assoc %d: stack writebacks %d, exact %d", ways, got, want)
		}
	}
}

func TestL2SpaceSimRejectsBadInput(t *testing.T) {
	front := testFront()
	if _, err := NewL2SpaceSim(nil); err == nil {
		t.Error("empty hierarchy set accepted")
	}
	wide := withL2(front, Config{Name: "w", SizeBytes: 2 * (MaxStackWays + 1) * 64, Ways: MaxStackWays + 1, BlockBytes: 64})
	if _, err := NewL2SpaceSim([]HierarchyConfig{wide}); err == nil {
		t.Errorf("%d-way L2 accepted beyond the %d ways a stack entry can track", wide.L2.Ways, MaxStackWays)
	}
	mixed := []Config{
		{Name: "a", SizeBytes: 128 * 1024, Ways: 8, BlockBytes: 64},
		{Name: "b", SizeBytes: 128 * 1024, Ways: 8, BlockBytes: 32},
	}
	// Two L2 block sizes make two fronts, each with its own L2 stacks.
	two, err := NewL2SpaceSim(withL2s(front, mixed))
	if err != nil {
		t.Fatal(err)
	}
	for _, l2 := range mixed {
		if _, err := two.StatsFor(withL2(front, l2)); err != nil {
			t.Errorf("%s: %v", l2, err)
		}
	}
	eng, err := NewL2SpaceSim(withL2s(front, mixed[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.StatsFor(withL2(front, Config{Name: "c", SizeBytes: 64 * 1024, Ways: 1, BlockBytes: 64})); err == nil {
		t.Error("unregistered set count accepted")
	}
	if _, err := eng.StatsFor(withL2(front, mixed[1])); err == nil {
		t.Error("wrong block size accepted")
	}
	other := front
	other.DL1.Ways = 1
	if _, err := eng.StatsFor(withL2(other, mixed[0])); err == nil {
		t.Error("unregistered front accepted")
	}

	// The stack of mixed[0]'s set count is bounded at its 8 ways: a
	// 16-way L2 of the same set count would need blocks the stacks no
	// longer hold, so every query for it is an error, not a guess.
	deep := withL2(front, Config{Name: "d", SizeBytes: 256 * 1024, Ways: 16, BlockBytes: 64})
	if deep.L2.Sets() != mixed[0].Sets() {
		t.Fatalf("test geometry has %d sets, want %d", deep.L2.Sets(), mixed[0].Sets())
	}
	if _, err := eng.StatsFor(deep); err == nil {
		t.Error("StatsFor answered an associativity beyond the stack bound")
	}
	if _, err := eng.IStallEvents(deep); err == nil {
		t.Error("IStallEvents answered an associativity beyond the stack bound")
	}
	if err := eng.RecordPlanes([]HierarchyConfig{deep}); err == nil {
		t.Error("RecordPlanes accepted an associativity beyond the stack bound")
	}
	if err := eng.RecordPlanes(withL2s(front, mixed[:1])); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PlaneFor(deep); err == nil {
		t.Error("PlaneFor answered an associativity beyond the stack bound")
	}
	if _, err := eng.StatsFor(withL2(front, Config{Name: "e", SizeBytes: 64 * 1024, Ways: 4, BlockBytes: 64})); err != nil {
		t.Errorf("associativity within the bound rejected: %v", err)
	}
}

// rawHierarchy replays the seed's AccessI/AccessD sequence with bare
// Cache/TLB components — no same-block fast path — so the fast-pathed
// Hierarchy has an independent reference.
type rawHierarchy struct {
	il1, dl1, l2 *Cache
	itlb, dtlb   *TLB
	s            Stats
}

func newRawHierarchy(cfg HierarchyConfig) *rawHierarchy {
	return &rawHierarchy{
		il1:  MustNew(cfg.IL1),
		dl1:  MustNew(cfg.DL1),
		l2:   MustNew(cfg.L2),
		itlb: MustNewTLB(cfg.ITLBEntries, cfg.PageBytes),
		dtlb: MustNewTLB(cfg.DTLBEntries, cfg.PageBytes),
	}
}

func (h *rawHierarchy) consume(d *tracetest.Inst) {
	byteAddr := d.PC * InstrBytes
	if !h.itlb.Access(byteAddr) {
		h.s.ITLBMisses++
	}
	h.s.IL1Accesses++
	if hit, _, _ := h.il1.Access(byteAddr, false); !hit {
		h.s.IL1Misses++
		l2hit, wb, _ := h.l2.Access(byteAddr, false)
		if wb {
			h.s.Writebacks++
		}
		if !l2hit {
			h.s.IL2Misses++
		}
	}
	if !d.IsLoad && !d.IsStore {
		return
	}
	write := d.IsStore
	byteAddr = d.EffAddr * WordBytes
	if !h.dtlb.Access(byteAddr) {
		h.s.DTLBMisses++
	}
	h.s.DL1Accesses++
	hit, wb1, victim := h.dl1.Access(byteAddr, write)
	if wb1 {
		if _, wb2, _ := h.l2.Access(victim, true); wb2 {
			h.s.Writebacks++
		}
	}
	if !hit {
		h.s.DL1Misses++
		if !write {
			h.s.DL1LoadMisses++
		}
		l2hit, wb, _ := h.l2.Access(byteAddr, write)
		if wb {
			h.s.Writebacks++
		}
		if !l2hit {
			h.s.DL2Misses++
			if !write {
				h.s.DL2LoadMisses++
			}
		}
	}
}

// TestHierarchyFastPathExact pins the same-block fast path: Hierarchy
// must collect statistics identical to a bare-component replay with no
// fast path, on streams dense in same-block repeats.
func TestHierarchyFastPathExact(t *testing.T) {
	cfg := testFront()
	cfg.L2 = Config{Name: "l2", SizeBytes: 16 * 1024, Ways: 4, BlockBytes: 64}
	for _, seed := range []int64{3, 11} {
		rng := rand.New(rand.NewSource(seed))
		tr := make([]tracetest.Inst, 80000)
		pc := int64(0)
		addr := int64(0)
		for i := range tr {
			d := &tr[i]
			d.PC = pc
			if rng.Intn(12) == 0 {
				pc = int64(rng.Intn(4096)) // jump far: new block, maybe new page
			} else {
				pc++ // sequential: same-block repeats dominate
			}
			switch rng.Intn(5) {
			case 0, 1:
				d.IsLoad = true
			case 2:
				d.IsStore = true
			default:
				continue
			}
			if rng.Intn(3) > 0 {
				addr++ // walk: same-block repeats with read/write mixes
			} else {
				addr = int64(rng.Intn(5000)) * 16
			}
			d.EffAddr = addr
		}
		h := MustNewHierarchy(cfg)
		raw := newRawHierarchy(cfg)
		for i := range tr {
			d := &tr[i]
			h.AccessI(d.PC)
			if d.IsLoad {
				h.AccessD(d.EffAddr, false)
			} else if d.IsStore {
				h.AccessD(d.EffAddr, true)
			}
			raw.consume(d)
		}
		if h.S != raw.s {
			t.Errorf("seed %d: fast-path stats diverge\n got  %+v\n want %+v", seed, h.S, raw.s)
		}
	}
}

// TestRecordPlanesMisuse pins the two misuses of RecordPlanes as
// errors: a call after the engine has consumed input (its planes would
// be shorter than the trace) and a second call (which would record
// every geometry twice).
func TestRecordPlanesMisuse(t *testing.T) {
	hiers := withL2s(testFront(), table2L2s())
	tr := tracetest.Of(randTrace(rand.New(rand.NewSource(5)), 100)...)

	late, err := NewL2SpaceSim(hiers)
	if err != nil {
		t.Fatal(err)
	}
	late.ConsumeChunk(&tr.Chunks()[0])
	if err := late.RecordPlanes(hiers); err == nil {
		t.Error("RecordPlanes after consumed input accepted")
	}
	if _, err := late.PlaneFor(hiers[0]); err == nil {
		t.Error("rejected RecordPlanes left a plane behind")
	}

	twice, err := NewL2SpaceSim(hiers)
	if err != nil {
		t.Fatal(err)
	}
	if err := twice.RecordPlanes(hiers[:2]); err != nil {
		t.Fatal(err)
	}
	if err := twice.RecordPlanes(hiers); err == nil {
		t.Error("second RecordPlanes accepted")
	}
	// The first call's recording stands, unchanged by the rejected one.
	twice.ConsumeChunk(&tr.Chunks()[0])
	if p, err := twice.PlaneFor(hiers[0]); err != nil || p.Len() != tr.Len() {
		t.Errorf("first recording: plane %v, %v; want %d entries", p.Len(), err, tr.Len())
	}
	if _, err := twice.PlaneFor(hiers[2]); err == nil {
		t.Error("second RecordPlanes added a geometry")
	}
}

// TestL2SpaceSimCancelledWalk pins the engine's chunk granularity: a
// walk cut after its k-th chunk leaves exactly the statistics and
// planes of an engine handed those k chunks and nothing else.
func TestL2SpaceSimCancelledWalk(t *testing.T) {
	hiers := withL2s(testFront(), table2L2s())
	ds := randTrace(rand.New(rand.NewSource(9)), 4*trace.ChunkLen+99)
	tr := tracetest.Of(ds...)
	for k := 1; k < tr.NumChunks(); k++ {
		cut, err := NewL2SpaceSim(hiers)
		if err != nil {
			t.Fatal(err)
		}
		if err := cut.RecordPlanes(hiers); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err = tr.EachChunk(ctx, func(ck *trace.Columns) {
			cut.ConsumeChunk(ck)
			if seen++; seen == k {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: walk returned %v", k, err)
		}
		want := recordedEngine(t, hiers, tracetest.Of(ds[:k*trace.ChunkLen]...))
		for _, h := range hiers {
			gi, _ := cut.IStallEvents(h)
			wi, _ := want.IStallEvents(h)
			gs, _ := cut.StatsFor(h)
			ws, _ := want.StatsFor(h)
			gp, _ := cut.PlaneFor(h)
			wp, _ := want.PlaneFor(h)
			if gi != wi || gs != ws || !gp.Equal(wp) {
				t.Fatalf("k=%d, %s: cut engine differs from one fed %d chunks", k, h.L2, k)
			}
		}
	}
}

// TestL2SpaceSimMemoryIsBounded feeds an engine with the Table 2 L2s a
// stream of loads touching 2^20 distinct L2 blocks, each once, and
// checks that the heap the engine retains stays under Σ sets × (8 ×
// bound + 1) bytes over its L2 stacks (8 bytes per entry, one fill byte
// per set) plus a fixed slack for the L1 stacks, TLBs and counters: the
// stacks never hold more than the bound per set, whatever the
// footprint.
func TestL2SpaceSimMemoryIsBounded(t *testing.T) {
	hiers := withL2s(testFront(), table2L2s())
	bound := make(map[int64]int) // L2 set count -> largest ways
	for _, h := range hiers {
		bound[h.L2.Sets()] = max(bound[h.L2.Sets()], h.L2.Ways)
	}
	var limit int64
	for sets, ways := range bound {
		limit += sets * (8*int64(ways) + 1)
	}
	const slack = 256 << 10

	// One chunk of loads at one PC above the data, rewritten with fresh
	// block addresses before each pass.
	ck := trace.Columns{
		N:      trace.ChunkLen,
		Static: []trace.Static{{PC: 1 << 28, Flags: trace.FlagLoad}},
		ID8:    make([]uint8, trace.ChunkLen),
		Addr:   make([]uint32, trace.ChunkLen),
	}
	const blocks = 1 << 20
	const wordsPerBlock = 64 / WordBytes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, err := NewL2SpaceSim(hiers)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b += trace.ChunkLen {
		for j := range ck.Addr {
			ck.Addr[j] = uint32((b + j) * wordsPerBlock)
		}
		eng.ConsumeChunk(&ck)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > limit+slack {
		t.Errorf("engine retains %d bytes after %d distinct blocks, bound %d + slack %d", retained, blocks, limit, slack)
	}
	st, err := eng.StatsFor(hiers[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.DL2Misses != blocks {
		t.Errorf("%d L2 misses over %d distinct blocks", st.DL2Misses, blocks)
	}
	runtime.KeepAlive(eng)
}
