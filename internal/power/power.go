// Package power is the McPAT substitute: an event-energy plus leakage
// model for the superscalar in-order cores explored in the paper's EDP
// case study (§6.3). Absolute watts are not the goal — the EDP study
// needs energies that scale monotonically and sensibly with the
// design parameters (width, pipeline depth/frequency-voltage, cache
// geometry, predictor size) so that the energy-delay-product ranking
// of design points is meaningful. Coefficients are loosely calibrated
// to published 32 nm embedded-core numbers (a few hundred pJ per
// instruction, nanojoule-class DRAM accesses).
package power

import (
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/uarch"
)

// Events counts the energy-consuming activities of one run.
type Events struct {
	N           int64 // dynamically executed instructions
	MulDiv      int64 // long-latency arithmetic operations
	IL1Accesses int64
	DL1Accesses int64
	L2Accesses  int64 // L1 misses from either side
	MemAccesses int64 // L2 misses
	Branches    int64 // predictor lookups/updates
}

// EventsFrom assembles Events from the standard collectors' outputs.
func EventsFrom(p *profile.Profile, mem cache.Stats, br branch.Stats) Events {
	return Events{
		N:           p.N,
		MulDiv:      p.NMul + p.NDiv,
		IL1Accesses: mem.IL1Accesses,
		DL1Accesses: mem.DL1Accesses,
		L2Accesses:  mem.IL1Misses + mem.DL1Misses,
		MemAccesses: mem.IL2Misses + mem.DL2Misses,
		Branches:    br.Branches,
	}
}

// Breakdown reports energy by source, in joules.
type Breakdown struct {
	Core    float64 // pipeline dynamic energy
	L1      float64
	L2      float64
	Memory  float64
	Bpred   float64
	Leakage float64
}

// Total returns total energy in joules.
func (b Breakdown) Total() float64 {
	return b.Core + b.L1 + b.L2 + b.Memory + b.Bpred + b.Leakage
}

// Reference supply voltages per Table 2 frequency setting; dynamic
// energy scales with V², leakage power with V.
func supplyVoltage(freqMHz int) float64 {
	switch {
	case freqMHz <= 600:
		return 0.9
	case freqMHz <= 800:
		return 1.0
	default:
		return 1.1
	}
}

const vRef = 1.1

// Model evaluates energy for a run of the given cycle count.
type Model struct {
	// Per-event energies at Vref, in nanojoules. The zero value is
	// unusable; use NewModel for calibrated defaults.
	InstrNJ     float64 // per instruction through a 1-wide, 5-stage pipe
	WidthFactor float64 // extra per-instruction energy per extra slot
	DepthFactor float64 // extra per-instruction energy per extra stage
	MulDivNJ    float64 // additional energy per long-latency op
	L1AccessNJ  float64 // per L1 access (32 KB reference)
	L2BaseNJ    float64 // per L2 access at 512 KB, 8-way
	MemNJ       float64 // per memory access
	BpredNJ     float64 // per branch at 1 KB predictor

	// Leakage, in watts at Vref.
	CoreLeakW    float64 // per issue slot
	L2LeakWPerKB float64
}

// NewModel returns the calibrated default model.
func NewModel() Model {
	return Model{
		InstrNJ:      0.12,
		WidthFactor:  0.22, // superlinear issue/bypass growth with width
		DepthFactor:  0.035,
		MulDivNJ:     0.35,
		L1AccessNJ:   0.06,
		L2BaseNJ:     0.45,
		MemNJ:        12.0,
		BpredNJ:      0.015,
		CoreLeakW:    0.018,
		L2LeakWPerKB: 0.00012,
	}
}

// Energy computes the energy breakdown for ev on cfg over the given
// number of cycles.
func (m Model) Energy(ev Events, cfg uarch.Config, cycles float64) (Breakdown, error) {
	if err := cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	if cycles <= 0 {
		return Breakdown{}, fmt.Errorf("power: non-positive cycle count %g", cycles)
	}
	v := supplyVoltage(cfg.FreqMHz)
	dyn := (v * v) / (vRef * vRef) // dynamic-energy voltage scaling
	leak := v / vRef               // leakage-power voltage scaling
	seconds := cfg.Seconds(cycles)

	const nj = 1e-9
	perInstr := m.InstrNJ * (1 + float64(m.WidthFactor*float64(cfg.Width-1))) *
		(1 + float64(m.DepthFactor*float64(cfg.PipelineStages()-5)))

	l2KB := float64(cfg.Hier.L2.SizeBytes) / 1024
	l2PerAccess := m.L2BaseNJ * math.Sqrt(l2KB/512) * (1 + float64(0.04*float64(cfg.Hier.L2.Ways-8)))

	bpredPer := m.BpredNJ
	if cfg.Predictor == uarch.PredHybrid3_5KB {
		bpredPer *= 2.2 // 3.5 KB of tables versus 1 KB
	}

	var b Breakdown
	b.Core = dyn * nj * (float64(perInstr*float64(ev.N)) + float64(m.MulDivNJ*float64(ev.MulDiv)))
	b.L1 = dyn * nj * m.L1AccessNJ * float64(ev.IL1Accesses+ev.DL1Accesses)
	b.L2 = dyn * nj * l2PerAccess * float64(ev.L2Accesses)
	b.Memory = dyn * nj * m.MemNJ * float64(ev.MemAccesses)
	b.Bpred = dyn * nj * bpredPer * float64(ev.Branches)
	leakW := leak * (float64(m.CoreLeakW*float64(cfg.Width)) + float64(m.L2LeakWPerKB*l2KB))
	b.Leakage = leakW * seconds
	return b, nil
}

// EDP returns the energy-delay product (J·s) for ev on cfg over cycles.
func (m Model) EDP(ev Events, cfg uarch.Config, cycles float64) (float64, error) {
	b, err := m.Energy(ev, cfg, cycles)
	if err != nil {
		return 0, err
	}
	return b.Total() * cfg.Seconds(cycles), nil
}

// Objectives bundles the optimization objectives of one design point:
// total energy, delay, and their product. The Pareto-aware exploration
// (dse.ParetoFront, dse.Search) trades Delay against EDP; both are
// derived from the same Energy breakdown, so EDP here is bit-identical
// to Model.EDP — the identity the exhaustive-recovery gate depends on.
type Objectives struct {
	EnergyJ  float64 // total energy, joules
	DelaySec float64 // run time, seconds
	EDP      float64 // energy-delay product, J·s
}

// Objectives evaluates all objectives for ev on cfg over cycles in one
// Energy evaluation. Objectives(...).EDP uses exactly the float
// operations of EDP(...), so the two are interchangeable bit-for-bit.
func (m Model) Objectives(ev Events, cfg uarch.Config, cycles float64) (Objectives, error) {
	b, err := m.Energy(ev, cfg, cycles)
	if err != nil {
		return Objectives{}, err
	}
	return Objectives{
		EnergyJ:  b.Total(),
		DelaySec: cfg.Seconds(cycles),
		EDP:      b.Total() * cfg.Seconds(cycles),
	}, nil
}
