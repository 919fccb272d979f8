// Package faultfs is the fault-injection harness for the persistent
// artifact tier: a store layer (artifact.Layer) that can slow down or
// fail loads and saves on command, so chaos tests can drive the
// service through a degraded or dying disk without touching the real
// store. Faults are injected at the store's typed operations — exactly
// where a failing filesystem would surface — which exercises every
// consumer (pool admissions, annotation rehydration, write-through)
// with zero knowledge in any of them.
//
// The zero fault plan is a transparent pass-through, and the zero Tier
// is ready to use. Plans can change at any time, including
// mid-request; all methods are safe for concurrent use.
package faultfs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
)

// Plan describes the faults currently injected.
type Plan struct {
	// Err, when non-nil, is returned by every operation matched by
	// Ops (after Delay). Loads return it with zero values; saves
	// return it outright.
	Err error
	// Delay is slept before every matched operation, error or not —
	// a slow disk rather than (or in addition to) a broken one.
	Delay time.Duration
	// Ops selects the operations the plan applies to, a union of
	// artifact.OpLoad and artifact.OpSave; 0 means every operation.
	Ops artifact.Op
	// Remaining, when > 0, arms the plan for that many matched
	// operations only; the plan then clears itself (a transient
	// glitch). ≤ 0 means the plan persists until replaced.
	Remaining int
}

// Tier holds the active fault plan of its Layer.
type Tier struct {
	mu   sync.Mutex
	plan Plan

	faults atomic.Int64 // operations that returned an injected error
	slowed atomic.Int64 // operations delayed by the plan
	ops    atomic.Int64 // operations observed (faulted or not)
}

// SetPlan installs the fault plan (replacing any previous one).
// Plan{} clears all faults.
func (t *Tier) SetPlan(p Plan) {
	if p.Ops == 0 {
		p.Ops = artifact.OpLoad | artifact.OpSave
	}
	t.mu.Lock()
	t.plan = p
	t.mu.Unlock()
}

// Clear removes the active plan.
func (t *Tier) Clear() { t.SetPlan(Plan{}) }

// Faults returns how many operations returned an injected error.
func (t *Tier) Faults() int64 { return t.faults.Load() }

// Slowed returns how many operations the plan delayed.
func (t *Tier) Slowed() int64 { return t.slowed.Load() }

// Ops returns how many store operations were observed in total.
func (t *Tier) Ops() int64 { return t.ops.Load() }

// apply consumes the plan for one operation of kind op, sleeping any
// configured delay and returning the injected error (nil for a clean
// pass-through).
func (t *Tier) apply(op artifact.Op) error {
	t.ops.Add(1)
	t.mu.Lock()
	p := t.plan
	if p.Err == nil && p.Delay == 0 {
		t.mu.Unlock()
		return nil
	}
	if p.Ops&op == 0 {
		t.mu.Unlock()
		return nil
	}
	if p.Remaining > 0 {
		t.plan.Remaining--
		if t.plan.Remaining == 0 {
			t.plan = Plan{}
		}
	}
	t.mu.Unlock()

	if p.Delay > 0 {
		t.slowed.Add(1)
		time.Sleep(p.Delay)
	}
	if p.Err != nil {
		t.faults.Add(1)
		return p.Err
	}
	return nil
}

// Layer is the tier's store layer: it applies the fault plan to the
// operation, then runs it. Install it with store.Use(t.Layer).
func (t *Tier) Layer(op artifact.Op, _ string, do func() error) error {
	if err := t.apply(op); err != nil {
		return err
	}
	return do()
}
