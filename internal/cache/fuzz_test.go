package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

// fuzzStream expands a fuzz input into an instruction stream of
// ChunkLen+1 to 2*ChunkLen-1 instructions: at least two chunks, the
// last one partial. Each instruction takes one byte of pattern
// (cyclically): bits 0–1 pick a plain instruction, a load or a store,
// bits 2–3 how the PC moves (sequential, near or far jump, or a
// repeat) and bits 4–5 the data address (same word, next word, near or
// far). rng, seeded by seed, supplies the jump targets and addresses,
// over footprints that miss in every TLB, L1 and small L2 of the test.
func fuzzStream(seed int64, length uint16, pattern []byte) *trace.Trace {
	if len(pattern) == 0 {
		pattern = []byte{0}
	}
	rng := rand.New(rand.NewSource(seed))
	n := trace.ChunkLen + 1 + int(length)%(trace.ChunkLen-1)
	ds := make([]tracetest.Inst, n)
	var pc, addr int64
	for i := range ds {
		b := pattern[i%len(pattern)]
		d := &ds[i]
		d.Seq, d.PC = int64(i), pc
		switch (b >> 2) & 3 {
		case 0:
			pc++
		case 1:
			pc = max(0, pc+int64(rng.Intn(256))-128)
		case 2:
			pc = int64(rng.Intn(1 << 16))
		}
		switch (b >> 4) & 3 {
		case 1:
			addr++
		case 2:
			addr = max(0, addr+int64(rng.Intn(4096))-2048)
		case 3:
			addr = int64(rng.Intn(1 << 20))
		}
		switch b & 3 {
		case 1:
			d.IsLoad, d.EffAddr = true, addr
		case 2:
			d.IsStore, d.EffAddr = true, addr
		}
	}
	return tracetest.Of(ds...)
}

// fuzzFronts returns the L1/TLB fronts one fuzzed engine walks
// together: the test front; a direct-mapped and a larger 2-way L1 whose
// equal set counts share one stack at two ways; a 4-way I-side beside a
// D-side that shares the test front's data stack, with TLBs and pages
// of its own; and a 32 B L1-I block, which moves the I-side same-block
// fast path to 32 B for every front and, with blocks of two sizes,
// turns off the I-side top-of-set check (l1Side.coarse). The first
// four fronts share 64 B blocks on both sides.
func fuzzFronts() []HierarchyConfig {
	l1 := func(name string, size int64, ways int, block int64) Config {
		return Config{Name: name, SizeBytes: size, Ways: ways, BlockBytes: block}
	}
	base := testFront()
	dm, wide, mixed, small := base, base, base, base
	dm.IL1, dm.DL1 = l1("il1", 2048, 1, 64), l1("dl1", 2048, 1, 64)
	wide.IL1, wide.DL1 = l1("il1", 4096, 2, 64), l1("dl1", 4096, 2, 64)
	mixed.IL1, mixed.DL1 = l1("il1", 2048, 4, 64), l1("dl1", 1024, 1, 64)
	mixed.ITLBEntries, mixed.DTLBEntries, mixed.PageBytes = 8, 2, 2048
	small.IL1 = l1("il1", 2048, 2, 32)
	return []HierarchyConfig{base, dm, wide, mixed, small}
}

// FuzzL2SpaceSim is the per-instruction oracle of the column engine:
// over arbitrary instruction streams, one engine walks several L1
// fronts (fuzzFronts) with L2 geometries behind each (the Table 2 L2s
// plus an 8 KiB direct-mapped and a 16 KiB 8-way one), and every
// plane byte of every hierarchy must equal the class a dedicated
// Hierarchy derives from its access results in trace order, StatsFor
// must equal that Hierarchy's statistics and IStallEvents its stalled
// fetches.
func FuzzL2SpaceSim(f *testing.F) {
	f.Add(int64(1), uint16(0), []byte{0x00, 0x01, 0x12, 0x25, 0x39})
	f.Add(int64(2), uint16(9000), []byte{0x31, 0x32, 0x08})
	f.Add(int64(3), uint16(1), []byte{0x15, 0x16, 0x15, 0x26})
	f.Add(int64(4), uint16(16000), []byte{0x3e, 0x0d, 0x1a})
	l2s := append(table2L2s(),
		Config{Name: "l2", SizeBytes: 8 * 1024, Ways: 1, BlockBytes: 64},
		Config{Name: "l2", SizeBytes: 16 * 1024, Ways: 8, BlockBytes: 64},
	)
	// The other fronts take a smaller L2 set (both small L2s and both
	// 128 KiB ones) to keep the oracle's replays affordable.
	fronts := fuzzFronts()
	hiers := withL2s(fronts[0], l2s)
	for _, front := range fronts[1:] {
		hiers = append(hiers, withL2s(front, slices.Concat(l2s[len(l2s)-2:], l2s[:2]))...)
	}
	f.Fuzz(func(t *testing.T, seed int64, length uint16, pattern []byte) {
		checkL2SpaceSim(t, hiers, fuzzStream(seed, length, pattern))
	})
}
