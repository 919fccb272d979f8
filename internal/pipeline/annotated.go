package pipeline

import (
	"repro/internal/cache"
	"repro/internal/trace"
)

// Annotation bundles the precomputed per-instruction machine events a
// timing-only replay consumes in place of live cache-hierarchy and
// branch-predictor objects. Mem holds one memory-event class byte per
// instruction (trace.Ann* bits) for cfg.Hier, MemStats the end-of-run
// hierarchy statistics of the same pass, and Br one mispredict bit per
// instruction for cfg.Predictor. Both planes are pure functions of the
// trace and their machine component — the blocking in-order pipeline
// touches memory in program order and trains the predictor at fetch in
// program order — so they are computed once per distinct component and
// shared by every design point (and every width/depth/frequency) that
// uses it.
type Annotation struct {
	Mem      *trace.BytePlane
	MemStats cache.Stats
	Br       *trace.BitPlane
}
