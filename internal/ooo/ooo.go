// Package ooo implements a compact out-of-order interval model in the
// style of Eyerman et al., "A Mechanistic Performance Model for
// Superscalar Out-of-Order Processors" (ACM TOCS 2009) — the model the
// paper uses for its in-order versus out-of-order comparison
// (Figure 7). The out-of-order machine is assumed balanced: between
// miss events it sustains dispatch at the designed width, hiding
// inter-instruction dependencies, non-unit execution latencies and
// short cache-hit latencies inside the reorder window. What remains
// visible is:
//
//   - I-cache misses, whose penalty equals the miss latency (identical
//     to the in-order case — the front-end simply stops feeding),
//   - branch mispredictions, whose penalty is the front-end refill
//     plus the branch *resolution time* (the time the branch spends in
//     the window before executing) — larger than in-order,
//   - long-latency (L2-missing) loads, whose penalty is the memory
//     latency divided by the memory-level parallelism the window
//     exposes — smaller than in-order,
//   - TLB walks, which serialize.
package ooo

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// Config extends a core design point with out-of-order parameters.
type Config struct {
	Base  uarch.Config // width, front-end depth, latencies, hierarchy, predictor
	ROB   int          // reorder-buffer size
	MSHRs int          // maximum outstanding misses (caps MLP)
}

// DefaultConfig returns a 4-wide out-of-order configuration matched to
// the paper's comparison: same width, front-end depth, caches and
// predictor as the in-order default, with a 128-entry window.
func DefaultConfig() Config {
	return Config{Base: uarch.Default(), ROB: 128, MSHRs: 8}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.ROB < c.Base.Width {
		return fmt.Errorf("ooo: ROB %d smaller than width %d", c.ROB, c.Base.Width)
	}
	if c.MSHRs < 1 {
		return fmt.Errorf("ooo: MSHRs %d < 1", c.MSHRs)
	}
	return nil
}

// Stats are the trace statistics the out-of-order model needs beyond
// the shared profile: miss counts and the memory-level parallelism of
// L2 data misses within the reorder window.
type Stats struct {
	Mem        cache.Stats
	Mispredict int64
	Branches   int64

	L2LoadMisses   int64 // data loads missing in L2
	L2MissClusters int64 // groups of overlapping (independent, window-local) misses
}

// MLP returns the average number of L2 load misses served per exposed
// miss interval (≥ 1).
func (s Stats) MLP() float64 {
	if s.L2MissClusters == 0 {
		return 1
	}
	m := float64(s.L2LoadMisses) / float64(s.L2MissClusters)
	if m < 1 {
		return 1
	}
	return m
}

// Collector gathers Stats in one pass over a trace. MLP is estimated
// by clustering L2 load misses that fall within one reorder window of
// the cluster leader and are not serially dependent on an in-flight
// miss (a load whose address comes from another missing load cannot
// overlap with it — the pointer-chasing case).
type Collector struct {
	cfg  Config
	hier *cache.Hierarchy
	pred interface {
		Predict(int64) bool
		Update(int64, bool)
	}
	s Stats

	// Per-register taint: sequence number of the L2-missing load that
	// produced the register's current value, or -1.
	missProducer [isa.NumRegs]int64

	clusterStart int64 // seq of current cluster leader, -1 if none
	clusterSize  int64
}

// NewCollector builds a collector for the given configuration.
func NewCollector(cfg Config) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h, err := cache.NewHierarchy(cfg.Base.Hier)
	if err != nil {
		return nil, err
	}
	c := &Collector{cfg: cfg, hier: h, pred: cfg.Base.Predictor.New(), clusterStart: -1}
	for i := range c.missProducer {
		c.missProducer[i] = -1
	}
	return c, nil
}

// ConsumeChunk observes one trace chunk, instruction by instruction,
// reading the id and address columns directly.
func (c *Collector) ConsumeChunk(ck *trace.Columns) {
	k := 0
	for j := 0; j < ck.N; j++ {
		s := ck.Tuple(j)
		fl, pc, seq := s.Flags, int64(s.PC), ck.Base+int64(j)
		c.hier.AccessI(pc)
		if fl&trace.FlagBranch != 0 {
			taken := fl&trace.FlagTaken != 0
			c.s.Branches++
			p := c.pred.Predict(pc)
			c.pred.Update(pc, taken)
			if p != taken {
				c.s.Mispredict++
			}
		}
		hasDst := fl&trace.FlagHasDst != 0
		if fl&trace.FlagMem == 0 {
			if hasDst {
				c.missProducer[s.Dst] = -1
			}
			continue
		}
		load := fl&trace.FlagLoad != 0
		r := c.hier.AccessD(int64(ck.Addr[k]), fl&trace.FlagStore != 0)
		k++
		if !load || r.L1Hit || r.L2Hit {
			if hasDst {
				c.missProducer[s.Dst] = -1
			}
			continue
		}
		c.s.L2LoadMisses++
		serial := false
		srcs := [2]isa.Reg{s.Src1, s.Src2}
		for _, src := range srcs[:fl>>trace.NumSrcShift] {
			if mp := c.missProducer[src]; mp >= 0 && seq-mp < int64(c.cfg.ROB) {
				serial = true // address depends on an in-flight miss
			}
		}
		inWindow := c.clusterStart >= 0 && seq-c.clusterStart < int64(c.cfg.ROB)
		if serial || !inWindow || c.clusterSize >= int64(c.cfg.MSHRs) {
			c.s.L2MissClusters++
			c.clusterStart = seq
			c.clusterSize = 1
		} else {
			c.clusterSize++
		}
		if hasDst {
			c.missProducer[s.Dst] = seq
		}
	}
}

// Result returns the collected statistics.
func (c *Collector) Result() Stats {
	c.s.Mem = c.hier.S
	return c.s
}

// Component identifies one term of the out-of-order CPI stack; the
// set mirrors Figure 7's legend.
type Component int

// Out-of-order CPI stack components.
const (
	Base Component = iota
	MulDiv
	IL1Miss
	IL2Miss
	DL1Miss
	DL2Miss
	BrMiss
	Deps

	NumComponents
)

var componentNames = [NumComponents]string{
	"base", "mul/div", "il1 miss", "il2 miss", "dl1 miss", "dl2 miss",
	"bpred miss", "deps",
}

func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("ooo-component(%d)", int(c))
}

// Stack is an out-of-order CPI stack.
type Stack struct {
	Cycles [NumComponents]float64
	N      int64
}

// Total returns total predicted cycles.
func (s *Stack) Total() float64 {
	var t float64
	for _, c := range s.Cycles {
		t += c
	}
	return t
}

// CPI returns cycles per instruction.
func (s *Stack) CPI() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Total() / float64(s.N)
}

// CPIOf returns one component in CPI terms.
func (s *Stack) CPIOf(c Component) float64 {
	if s.N == 0 {
		return 0
	}
	return s.Cycles[c] / float64(s.N)
}

// Predict evaluates the out-of-order interval model.
func Predict(n int64, st Stats, cfg Config) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("ooo: zero instruction count")
	}
	W := float64(cfg.Base.Width)
	D := float64(cfg.Base.FrontEndDepth)
	l2hit := float64(cfg.Base.L2HitCycles())
	l2miss := float64(cfg.Base.L2MissCycles())
	walk := float64(cfg.Base.TLBWalkCycles())
	// Window drain: instructions in flight when the branch executes,
	// divided by the dispatch rate — the classic resolution-time
	// approximation for a balanced window at half occupancy.
	resolution := float64(cfg.ROB) / (2 * W)
	// Short latencies are hidden when the window can cover them.
	hide := float64(cfg.ROB) / (2 * W)

	s := &Stack{N: n}
	s.Cycles[Base] = float64(n) / W
	// Dependencies and mul/div latencies: hidden by out-of-order
	// execution (the observation Figure 7 illustrates).
	s.Cycles[Deps] = 0
	s.Cycles[MulDiv] = 0

	// I-side misses stop the front-end exactly as on the in-order core.
	s.Cycles[IL1Miss] = float64(st.Mem.IL1Misses-st.Mem.IL2Misses) * l2hit
	s.Cycles[IL2Miss] = float64(st.Mem.IL2Misses) * l2miss

	// D-side: L2 hits are hidden if the window covers them; L2 misses
	// pay the memory latency once per overlapping cluster.
	shortPenalty := l2hit - hide
	if shortPenalty < 0 {
		shortPenalty = 0
	}
	s.Cycles[DL1Miss] = float64(st.Mem.DL1Misses-st.Mem.DL2Misses) * shortPenalty
	exposed := float64(st.L2MissClusters)
	s.Cycles[DL2Miss] = float64(exposed*l2miss) + float64(float64(st.Mem.DTLBMisses+st.Mem.ITLBMisses)*walk)

	s.Cycles[BrMiss] = float64(st.Mispredict) * (D + resolution)
	return s, nil
}
