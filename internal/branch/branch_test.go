package branch

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/trace/tracetest"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 || !c.taken() {
		t.Errorf("counter = %d after saturating up", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 || c.taken() {
		t.Errorf("counter = %d after saturating down", c)
	}
}

func TestStaticNotTaken(t *testing.T) {
	var p StaticNotTaken
	if p.Predict(123) {
		t.Error("static-NT predicted taken")
	}
	p.Update(123, true) // no-op
	if p.Predict(123) {
		t.Error("static-NT learned")
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := int64(100)
	for i := 0; i < 4; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Error("bimodal did not learn a taken bias")
	}
	// A different PC in another entry is unaffected.
	if b.Predict(pc + 1) {
		t.Error("bimodal default should be weakly not-taken")
	}
	b.Reset()
	if b.Predict(pc) {
		t.Error("Reset did not restore initial state")
	}
}

func TestBimodalAliasing(t *testing.T) {
	b := NewBimodal(16)
	b.Update(0, true)
	b.Update(0, true)
	if !b.Predict(16) { // aliases with PC 0 (16 mod 16)
		t.Error("aliased entry not shared")
	}
}

func TestGShareUsesHistory(t *testing.T) {
	// A strictly alternating branch is mispredicted by bimodal but
	// perfectly predictable with one bit of history.
	g := NewGShare(12)
	bi := NewBimodal(4096)
	pc := int64(64)
	gMiss, bMiss := 0, 0
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken
		if g.Predict(pc) != taken {
			gMiss++
		}
		if bi.Predict(pc) != taken {
			bMiss++
		}
		g.Update(pc, taken)
		bi.Update(pc, taken)
	}
	if gMiss >= bMiss {
		t.Errorf("gshare (%d misses) not better than bimodal (%d) on alternating branch", gMiss, bMiss)
	}
	if gMiss > 100 {
		t.Errorf("gshare failed to learn alternating pattern: %d misses", gMiss)
	}
}

func TestLocalLearnsShortPeriodicPattern(t *testing.T) {
	l := NewLocal(1024, 10)
	pc := int64(200)
	// Pattern with period 4: T T T N.
	miss := 0
	for i := 0; i < 4000; i++ {
		taken := i%4 != 3
		if l.Predict(pc) != taken {
			miss++
		}
		l.Update(pc, taken)
	}
	if miss > 200 {
		t.Errorf("local predictor failed on periodic pattern: %d/4000 misses", miss)
	}
}

func TestHybridTracksBetterComponent(t *testing.T) {
	// Per-branch periodic patterns favor the local side; the hybrid
	// must approach the local component's accuracy.
	h := NewPaperHybrid()
	l := NewLocal(1024, 10)
	pcs := []int64{10, 20, 30}
	hMiss, lMiss := 0, 0
	for i := 0; i < 6000; i++ {
		pc := pcs[i%3]
		taken := (i/3)%3 != 2 // period-3 per-branch pattern
		if h.Predict(pc) != taken {
			hMiss++
		}
		if l.Predict(pc) != taken {
			lMiss++
		}
		h.Update(pc, taken)
		l.Update(pc, taken)
	}
	if hMiss > lMiss*2+200 {
		t.Errorf("hybrid (%d misses) much worse than local (%d)", hMiss, lMiss)
	}
	h.Reset() // must not panic and must clear
	if h.Name() == "" {
		t.Error("empty name")
	}
}

func TestCollectorCounts(t *testing.T) {
	br := func(taken bool) tracetest.Inst {
		return tracetest.Inst{IsBranch: true, Taken: taken, PC: 5}
	}
	tr := tracetest.Of(
		br(true),  // mispredicted (NT predictor, taken branch)
		br(false), // correct, not taken
		tracetest.Inst{IsJump: true, Taken: true},
		tracetest.Inst{}, // non-control: ignored
	)
	c := NewCollector(StaticNotTaken{})
	ConsumeChunk(&tr.Chunks()[0], []*Collector{c}, nil)
	if c.S.Branches != 2 || c.S.Mispredicts != 1 || c.S.Jumps != 1 {
		t.Errorf("stats = %+v", c.S)
	}
	if c.S.PredictedTaken != 0 {
		t.Errorf("static-NT cannot have predicted-taken hits: %+v", c.S)
	}
	if c.S.TakenBubbles() != 1 { // the jump
		t.Errorf("TakenBubbles = %d", c.S.TakenBubbles())
	}
	if c.S.MispredictRate() != 0.5 {
		t.Errorf("rate = %f", c.S.MispredictRate())
	}
	ref := NewCollector(StaticNotTaken{})
	ConsumeRef(ref, tr)
	if ref.S != c.S {
		t.Errorf("per-record reference %+v, ConsumeChunk %+v", ref.S, c.S)
	}
}

// TestMultiCollectorIndependence pins that predictors fed one stream
// together do not interfere.
func TestMultiCollectorIndependence(t *testing.T) {
	recs := make([]tracetest.Inst, 100)
	for i := range recs {
		recs[i] = tracetest.Inst{IsBranch: true, Taken: true, PC: 3}
	}
	cs := []*Collector{NewCollector(StaticNotTaken{}), NewCollector(NewBimodal(64))}
	ConsumeChunk(&tracetest.Of(recs...).Chunks()[0], cs, nil)
	st := []Stats{cs[0].S, cs[1].S}
	if st[0].Mispredicts != 100 {
		t.Errorf("static-NT mispredicts = %d, want 100", st[0].Mispredicts)
	}
	if st[1].Mispredicts > 5 {
		t.Errorf("bimodal mispredicts = %d, want few", st[1].Mispredicts)
	}
	if st[1].PredictedTaken < 95 {
		t.Errorf("bimodal predicted-taken = %d", st[1].PredictedTaken)
	}
}

func TestMispredictRateEmpty(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("empty rate not 0")
	}
}

func TestConstructorsRejectBadSizes(t *testing.T) {
	for _, f := range []func(){
		func() { NewBimodal(0) },
		func() { NewBimodal(3) },
		func() { NewLocal(0, 4) },
		func() { NewHybrid(NewLocal(16, 4), NewGShare(4), 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad size accepted")
				}
			}()
			f()
		}()
	}
}

// refTable is the original predict-then-update code of the 2-bit
// counter tables, kept as the reference of Step: Update now trains
// through Step, so checking Step against the predictors' own Predict
// and Update would share the training under test. index maps a branch
// to its counter; after trains the index state (a history) on the
// outcome.
type refTable struct {
	tab   []counter
	index func(pc int64) int64
	after func(pc int64, taken bool)
}

func newRefTable(entries int, index func(int64) int64, after func(int64, bool)) *refTable {
	r := &refTable{tab: make([]counter, entries), index: index, after: after}
	for i := range r.tab {
		r.tab[i] = 1
	}
	return r
}

func (r *refTable) predict(pc int64) bool { return r.tab[r.index(pc)].taken() }

func (r *refTable) update(pc int64, taken bool) {
	i := r.index(pc)
	r.tab[i] = r.tab[i].update(taken)
	r.after(pc, taken)
}

func refGShare(histBits uint) *refTable {
	var hist int64
	mask := int64(1)<<histBits - 1
	return newRefTable(1<<histBits, func(pc int64) int64 { return (pc ^ hist) & mask },
		func(_ int64, taken bool) { hist = (hist<<1 | boolBit(taken)) & mask })
}

func refLocal(lhEntries int, histBits uint) *refTable {
	hist := make([]int64, lhEntries)
	lhMask, phtMask := int64(lhEntries-1), int64(1)<<histBits-1
	return newRefTable(1<<histBits, func(pc int64) int64 { return hist[pc&lhMask] & phtMask },
		func(pc int64, taken bool) { hist[pc&lhMask] = (hist[pc&lhMask]<<1 | boolBit(taken)) & phtMask })
}

// refHybrid is the original hybrid: the chooser is trained on the
// components' predictions, recomputed before they are updated.
type refHybrid struct {
	local, global *refTable
	chooser       *refTable
}

func (h *refHybrid) predict(pc int64) bool {
	if h.chooser.predict(pc) {
		return h.global.predict(pc)
	}
	return h.local.predict(pc)
}

func (h *refHybrid) update(pc int64, taken bool) {
	if lp, gp := h.local.predict(pc), h.global.predict(pc); lp != gp {
		h.chooser.update(pc, gp == taken)
	}
	h.local.update(pc, taken)
	h.global.update(pc, taken)
}

// ConsumeRef is the per-record reference of ConsumeChunk, exported to
// this directory's external tests: it runs c's predictor over tr one
// record at a time, Predict then Update on each conditional branch,
// and counts the jumps. It returns, per instruction, whether it was a
// mispredicted branch.
func ConsumeRef(c *Collector, tr *trace.Trace) []bool {
	var mis []bool
	tracetest.Each(tr, func(d *tracetest.Inst) {
		m := false
		switch {
		case d.IsJump:
			c.S.Jumps++
		case d.IsBranch:
			c.S.Branches++
			if c.P.Predict(d.PC) != d.Taken {
				c.S.Mispredicts++
				m = true
			} else if d.Taken {
				c.S.PredictedTaken++
			}
			c.P.Update(d.PC, d.Taken)
		}
		mis = append(mis, m)
	})
	return mis
}

// TestStepMatchesPredictUpdate checks the fused step of every predictor
// against the original predict-then-update code, on a pseudo-random
// stream over more branches than the small tables hold, so entries
// alias.
func TestStepMatchesPredictUpdate(t *testing.T) {
	type ref interface {
		predict(pc int64) bool
		update(pc int64, taken bool)
	}
	chooser := func(entries int) *refTable {
		return newRefTable(entries, func(pc int64) int64 { return pc & int64(entries-1) }, func(int64, bool) {})
	}
	cases := []struct {
		p   Predictor
		ref ref
	}{
		{NewBimodal(16), chooser(16)},
		{NewGShare(4), refGShare(4)},
		{NewLocal(8, 3), refLocal(8, 3)},
		{NewHybrid(NewLocal(8, 3), NewGShare(4), 16), &refHybrid{refLocal(8, 3), refGShare(4), chooser(16)}},
		{NewPaperHybrid(), &refHybrid{refLocal(1024, 10), refGShare(12), chooser(4096)}},
	}
	for _, c := range cases {
		x := uint64(1)
		for i := 0; i < 20000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			pc, taken := int64(x%61), x>>40%3 != 0
			want := c.ref.predict(pc)
			c.ref.update(pc, taken)
			if got := c.p.Step(pc, taken); got != want {
				t.Fatalf("%s: branch %d: Step predicted %v, the reference %v", c.p.Name(), i, got, want)
			}
			if got := c.p.Predict(pc); got != c.ref.predict(pc) {
				t.Fatalf("%s: branch %d: Predict disagrees with the reference after the step", c.p.Name(), i)
			}
		}
	}
	if (StaticNotTaken{}).Step(3, true) {
		t.Error("static-nt stepped to taken")
	}
}
