// Package branch implements the branch-predictor substrate: static,
// bimodal, gshare (global history) and hybrid local/global predictors,
// plus a collector that simulates one predictor over a trace (several
// share one decoding of each chunk's branches) — mirroring the paper's
// single-run collection of branch misprediction rates for multiple
// predictor configurations.
//
// Prediction is direction-only: targets of direct branches and jumps
// are assumed available from a branch target buffer, as in the paper's
// pipeline where a branch is predicted one cycle after fetch.
package branch

import (
	"fmt"
)

// Predictor predicts conditional-branch directions.
type Predictor interface {
	// Name identifies the configuration.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc int64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc int64, taken bool)
	// Step is Predict then Update on one branch, reading each table
	// entry once: it returns the prediction made before training.
	Step(pc int64, taken bool) bool
	// Reset restores the initial state.
	Reset()
}

// counter is a saturating 2-bit counter; values 0..3, taken if ≥ 2.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

// trained[t][c] is counter c after a branch that went taken (t = 1)
// or not (t = 0): a table, so that the predictors' steps stay small
// enough to inline.
var trained = [2][4]counter{{0, 0, 1, 2}, {1, 2, 3, 3}}

func (c counter) update(taken bool) counter { return trained[boolBit(taken)][c&3] }

// step trains *c and returns its prediction from before.
func (c *counter) step(taken bool) bool {
	old := *c
	*c = old.update(taken)
	return old.taken()
}

// StaticNotTaken always predicts not taken.
type StaticNotTaken struct{}

// Name implements Predictor.
func (StaticNotTaken) Name() string { return "static-nt" }

// Predict implements Predictor.
func (StaticNotTaken) Predict(int64) bool { return false }

// Update implements Predictor.
func (StaticNotTaken) Update(int64, bool) {}

// Step implements Predictor.
func (StaticNotTaken) Step(int64, bool) bool { return false }

// Reset implements Predictor.
func (StaticNotTaken) Reset() {}

// Bimodal is a table of 2-bit counters indexed by PC.
type Bimodal struct {
	name string
	tab  []counter
	mask int64
}

// NewBimodal builds a bimodal predictor with the given number of
// entries (a power of two).
func NewBimodal(entries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("branch: bimodal entries %d not a positive power of two", entries))
	}
	b := &Bimodal{name: fmt.Sprintf("bimodal-%d", entries), mask: int64(entries - 1)}
	b.tab = make([]counter, entries)
	b.Reset()
	return b
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return b.name }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc int64) bool { return b.tab[pc&b.mask].taken() }

// Update implements Predictor.
func (b *Bimodal) Update(pc int64, taken bool) { b.Step(pc, taken) }

// Step implements Predictor.
func (b *Bimodal) Step(pc int64, taken bool) bool { return b.tab[pc&b.mask].step(taken) }

// Reset implements Predictor.
func (b *Bimodal) Reset() {
	for i := range b.tab {
		b.tab[i] = 1 // weakly not-taken
	}
}

// GShare hashes the global history register with the PC to index a
// table of 2-bit counters. With 12 history bits and 4096 counters this
// is the paper's default "1 KB global history" predictor.
type GShare struct {
	name     string
	tab      []counter
	histBits uint
	hist     int64
	mask     int64
}

// NewGShare builds a gshare predictor with 2^histBits counters.
func NewGShare(histBits uint) *GShare {
	entries := 1 << histBits
	g := &GShare{
		name:     fmt.Sprintf("gshare-%db", histBits),
		histBits: histBits,
		mask:     int64(entries - 1),
	}
	g.tab = make([]counter, entries)
	g.Reset()
	return g
}

func (g *GShare) index(pc int64) int64 { return (pc ^ g.hist) & g.mask }

// Name implements Predictor.
func (g *GShare) Name() string { return g.name }

// Predict implements Predictor.
func (g *GShare) Predict(pc int64) bool { return g.tab[g.index(pc)].taken() }

// Update implements Predictor.
func (g *GShare) Update(pc int64, taken bool) { g.Step(pc, taken) }

// Step implements Predictor.
func (g *GShare) Step(pc int64, taken bool) bool {
	pred := g.tab[g.index(pc)].step(taken)
	g.hist = ((g.hist << 1) | boolBit(taken)) & g.mask
	return pred
}

// Reset implements Predictor.
func (g *GShare) Reset() {
	for i := range g.tab {
		g.tab[i] = 1
	}
	g.hist = 0
}

// Local is a two-level local-history predictor: a per-branch history
// table feeding a pattern history table of 2-bit counters.
type Local struct {
	name      string
	localHist []int64
	pht       []counter
	histBits  uint
	lhMask    int64
	phtMask   int64
}

// NewLocal builds a local predictor with lhEntries per-branch histories
// of histBits bits and a 2^histBits-entry pattern table.
func NewLocal(lhEntries int, histBits uint) *Local {
	if lhEntries <= 0 || lhEntries&(lhEntries-1) != 0 {
		panic(fmt.Sprintf("branch: local history entries %d not a positive power of two", lhEntries))
	}
	l := &Local{
		name:      fmt.Sprintf("local-%dx%db", lhEntries, histBits),
		localHist: make([]int64, lhEntries),
		pht:       make([]counter, 1<<histBits),
		histBits:  histBits,
		lhMask:    int64(lhEntries - 1),
		phtMask:   int64(1<<histBits - 1),
	}
	l.Reset()
	return l
}

// Name implements Predictor.
func (l *Local) Name() string { return l.name }

// Predict implements Predictor.
func (l *Local) Predict(pc int64) bool {
	h := l.localHist[pc&l.lhMask]
	return l.pht[h&l.phtMask].taken()
}

// Update implements Predictor.
func (l *Local) Update(pc int64, taken bool) { l.Step(pc, taken) }

// Step implements Predictor.
func (l *Local) Step(pc int64, taken bool) bool {
	h := &l.localHist[pc&l.lhMask]
	pred := l.pht[*h&l.phtMask].step(taken)
	*h = (*h<<1 | boolBit(taken)) & l.phtMask
	return pred
}

// Reset implements Predictor.
func (l *Local) Reset() {
	for i := range l.localHist {
		l.localHist[i] = 0
	}
	for i := range l.pht {
		l.pht[i] = 1
	}
}

// Hybrid combines a local and a global component with a chooser table
// trained on which component was right. With a 1024×10 b local
// component, a 12 b gshare and a 4096-entry chooser this is the paper's
// "3.5 KB hybrid" predictor.
type Hybrid struct {
	name    string
	local   *Local
	global  *GShare
	chooser []counter // ≥2 selects global
	mask    int64
}

// NewHybrid builds a hybrid predictor.
func NewHybrid(local *Local, global *GShare, chooserEntries int) *Hybrid {
	if chooserEntries <= 0 || chooserEntries&(chooserEntries-1) != 0 {
		panic(fmt.Sprintf("branch: chooser entries %d not a positive power of two", chooserEntries))
	}
	h := &Hybrid{
		name:    fmt.Sprintf("hybrid(%s,%s)", local.Name(), global.Name()),
		local:   local,
		global:  global,
		chooser: make([]counter, chooserEntries),
		mask:    int64(chooserEntries - 1),
	}
	h.Reset()
	return h
}

// NewPaperHybrid builds the Table 2 hybrid: 10-bit local, 12-bit global.
func NewPaperHybrid() *Hybrid {
	return NewHybrid(NewLocal(1024, 10), NewGShare(12), 4096)
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return h.name }

// Predict implements Predictor.
func (h *Hybrid) Predict(pc int64) bool {
	if h.chooser[pc&h.mask].taken() {
		return h.global.Predict(pc)
	}
	return h.local.Predict(pc)
}

// Update implements Predictor.
func (h *Hybrid) Update(pc int64, taken bool) { h.Step(pc, taken) }

// Step implements Predictor. The chooser, trained on the components'
// predictions when they disagree, picks the prediction returned.
func (h *Hybrid) Step(pc int64, taken bool) bool {
	i := pc & h.mask
	ch := h.chooser[i]
	lp := h.local.Step(pc, taken)
	gp := h.global.Step(pc, taken)
	if lp != gp {
		h.chooser[i] = ch.update(gp == taken)
	}
	if ch.taken() {
		return gp
	}
	return lp
}

// Reset implements Predictor.
func (h *Hybrid) Reset() {
	h.local.Reset()
	h.global.Reset()
	for i := range h.chooser {
		h.chooser[i] = 1
	}
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Stats aggregates the branch statistics the model consumes.
type Stats struct {
	Branches       int64 // conditional branches seen
	Mispredicts    int64 // direction mispredictions
	PredictedTaken int64 // conditional branches predicted taken and correct
	Jumps          int64 // unconditional control transfers (always redirect)
}

// TakenBubbles returns the number of 1-cycle taken-redirect bubbles:
// correctly-predicted taken branches plus unconditional jumps. (A
// mispredicted branch's bubble is subsumed by its flush penalty.)
func (s Stats) TakenBubbles() int64 { return s.PredictedTaken + s.Jumps }

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Collector simulates one predictor over a trace, chunk by chunk
// (ConsumeChunk).
type Collector struct {
	P Predictor
	S Stats
}

// NewCollector wraps p.
func NewCollector(p Predictor) *Collector { return &Collector{P: p} }
