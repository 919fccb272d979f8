// Package uarch defines the machine parameters shared by the
// mechanistic model, the detailed pipeline simulator, the power model
// and the design-space exploration: pipeline width and depth, clock
// frequency, functional-unit latencies, the cache hierarchy and the
// branch predictor configuration (Table 2 of the paper).
package uarch

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
)

// PredictorKind selects one of the Table 2 predictor configurations.
type PredictorKind uint8

const (
	// PredGShare1KB is the default 1 KB global-history predictor
	// (4096 2-bit counters, 12 bits of global history).
	PredGShare1KB PredictorKind = iota
	// PredHybrid3_5KB is the 3.5 KB hybrid predictor with a 10-bit
	// local component and a 12-bit global component.
	PredHybrid3_5KB
	// PredBimodal2KB is an extra configuration used in tests/ablations.
	PredBimodal2KB
	// PredStaticNT always predicts not-taken.
	PredStaticNT
)

func (k PredictorKind) String() string {
	switch k {
	case PredGShare1KB:
		return "gshare-1KB"
	case PredHybrid3_5KB:
		return "hybrid-3.5KB"
	case PredBimodal2KB:
		return "bimodal-2KB"
	case PredStaticNT:
		return "static-nt"
	}
	return fmt.Sprintf("pred(%d)", uint8(k))
}

// New instantiates a fresh predictor of this kind.
func (k PredictorKind) New() branch.Predictor {
	switch k {
	case PredGShare1KB:
		return branch.NewGShare(12)
	case PredHybrid3_5KB:
		return branch.NewPaperHybrid()
	case PredBimodal2KB:
		return branch.NewBimodal(8192)
	case PredStaticNT:
		return branch.StaticNotTaken{}
	}
	panic("uarch: unknown predictor kind")
}

// MaxWidth is the widest pipeline a Config may describe.
const MaxWidth = 8

// Config is one superscalar in-order processor design point.
type Config struct {
	Name string

	Width         int // W: slots per pipeline stage
	FrontEndDepth int // D: number of front-end stages (fetch+decode)
	FreqMHz       int // clock frequency

	MulLatency int // execute-stage occupancy of a multiply, cycles
	DivLatency int // execute-stage occupancy of a divide, cycles

	L2HitNS   float64 // L2 access time (paper: 10 ns)
	MemNS     float64 // main-memory access time beyond L2
	TLBWalkNS float64 // page-walk time on a TLB miss

	Hier      cache.HierarchyConfig
	Predictor PredictorKind
}

// cyclesFor converts a latency in nanoseconds to (rounded-up) cycles at
// the configured frequency, with a minimum of 1 cycle.
func (c Config) cyclesFor(ns float64) int {
	cyc := int((float64(ns*float64(c.FreqMHz)) + 999) / 1000)
	if cyc < 1 {
		cyc = 1
	}
	return cyc
}

// L2HitCycles is the extra cycles an L1 miss that hits in L2 costs.
func (c Config) L2HitCycles() int { return c.cyclesFor(c.L2HitNS) }

// MemCycles is the extra cycles an L2 miss costs beyond the L2 lookup.
func (c Config) MemCycles() int { return c.cyclesFor(c.MemNS) }

// L2MissCycles is the total extra cycles for an access that misses in
// both L1 and L2: the L2 lookup plus the memory access.
func (c Config) L2MissCycles() int { return c.L2HitCycles() + c.MemCycles() }

// TLBWalkCycles is the extra cycles a TLB miss costs.
func (c Config) TLBWalkCycles() int { return c.cyclesFor(c.TLBWalkNS) }

// PipelineStages is the total pipeline depth: front-end plus
// execute/memory/writeback.
func (c Config) PipelineStages() int { return c.FrontEndDepth + 3 }

// Validate checks the design point.
func (c Config) Validate() error {
	if c.Width < 1 || c.Width > MaxWidth {
		return fmt.Errorf("uarch %q: width %d out of [1,%d]", c.Name, c.Width, MaxWidth)
	}
	if c.FrontEndDepth < 1 {
		return fmt.Errorf("uarch %q: front-end depth %d < 1", c.Name, c.FrontEndDepth)
	}
	if c.FreqMHz <= 0 {
		return fmt.Errorf("uarch %q: frequency %d MHz", c.Name, c.FreqMHz)
	}
	if c.MulLatency < 1 || c.DivLatency < 1 {
		return fmt.Errorf("uarch %q: non-positive mul/div latency", c.Name)
	}
	return c.Hier.Validate()
}

// Seconds converts a cycle count to seconds at the configured frequency.
func (c Config) Seconds(cycles float64) float64 {
	return cycles / (float64(c.FreqMHz) * 1e6)
}

// KB is 1024 bytes.
const KB = 1024

// DefaultL1I returns the Table 2 L1 instruction cache: 32 KB, 4-way,
// 64 B blocks.
func DefaultL1I() cache.Config {
	return cache.Config{Name: "il1", SizeBytes: 32 * KB, Ways: 4, BlockBytes: 64}
}

// DefaultL1D returns the Table 2 L1 data cache: 32 KB, 4-way, 64 B.
func DefaultL1D() cache.Config {
	return cache.Config{Name: "dl1", SizeBytes: 32 * KB, Ways: 4, BlockBytes: 64}
}

// L2Config returns a unified L2 with the given size and associativity.
func L2Config(sizeKB int, ways int) cache.Config {
	return cache.Config{Name: "l2", SizeBytes: int64(sizeKB) * KB, Ways: ways, BlockBytes: 64}
}

// DefaultHierarchy returns the Table 2 default memory system: 32 KB
// 4-way L1s, 512 KB 8-way L2, 32-entry TLBs with 4 KB pages.
func DefaultHierarchy() cache.HierarchyConfig {
	return cache.HierarchyConfig{
		IL1:         DefaultL1I(),
		DL1:         DefaultL1D(),
		L2:          L2Config(512, 8),
		ITLBEntries: 32,
		DTLBEntries: 32,
		PageBytes:   4096,
	}
}

// Default returns the Table 2 default processor: 4-wide, 9-stage
// pipeline at 1 GHz, 512 KB 8-way L2, 1 KB gshare predictor.
func Default() Config {
	return Config{
		Name:          "default",
		Width:         4,
		FrontEndDepth: 6, // 9-stage pipeline
		FreqMHz:       1000,
		MulLatency:    4,
		DivLatency:    20,
		L2HitNS:       10,
		MemNS:         70,
		TLBWalkNS:     30,
		Hier:          DefaultHierarchy(),
		Predictor:     PredGShare1KB,
	}
}

// DepthFreq pairs pipeline depth with its Table 2 frequency setting:
// 5 stages at 600 MHz, 7 at 800 MHz, 9 at 1 GHz.
type DepthFreq struct {
	Stages  int
	FreqMHz int
}

// DepthFreqPoints returns the three Table 2 depth/frequency settings.
func DepthFreqPoints() []DepthFreq {
	return []DepthFreq{{5, 600}, {7, 800}, {9, 1000}}
}

// WithDepth returns a copy of c with the given total pipeline depth and
// its paired frequency.
func (c Config) WithDepth(df DepthFreq) Config {
	c.FrontEndDepth = df.Stages - 3
	c.FreqMHz = df.FreqMHz
	return c
}

// WithWidth returns a copy of c with the given width.
func (c Config) WithWidth(w int) Config {
	c.Width = w
	return c
}

// WithL2 returns a copy of c with the given L2 configuration.
func (c Config) WithL2(sizeKB, ways int) Config {
	c.Hier.L2 = L2Config(sizeKB, ways)
	return c
}

// WithPredictor returns a copy of c with the given predictor.
func (c Config) WithPredictor(k PredictorKind) Config {
	c.Predictor = k
	return c
}

// String renders the design point compactly.
func (c Config) String() string {
	return fmt.Sprintf("W%d/D%d/%dMHz/L2:%dKB-%dw/%s",
		c.Width, c.PipelineStages(), c.FreqMHz,
		c.Hier.L2.SizeBytes/KB, c.Hier.L2.Ways, c.Predictor)
}
