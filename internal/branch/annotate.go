package branch

import (
	"context"

	"repro/internal/trace"
)

// AnnotateMispredicts simulates p over the trace's conditional-branch
// stream — exactly the stream the detailed pipeline's fetch stage
// trains it on: every conditional branch once, in program order, jumps
// excluded — and returns a bit plane marking each mispredicted branch,
// together with the end-of-run Stats a Collector would report over the
// same trace (same Predict/Update ordering on the identical branch
// stream), so callers that need both pay one traversal. The plane is a
// pure function of (trace, predictor kind), so one annotation serves
// every design point sharing the predictor. It is ConsumeChunk on one
// Collector per chunk, recording the plane. Cancellation is
// observed between trace chunks (trace.EachChunk), returning ctx.Err()
// with a nil plane; a completed annotation is bit-identical to an
// uncancelled one.
func AnnotateMispredicts(ctx context.Context, tr *trace.Trace, p Predictor) (*trace.BitPlane, Stats, error) {
	cs, mis := []*Collector{NewCollector(p)}, make([][]uint64, 1)
	b := trace.NewBitPlaneBuilder()
	if err := tr.EachChunk(ctx, func(ck *trace.Columns) {
		mis[0] = b.AppendChunk(ck.N)
		ConsumeChunk(ck, cs, mis)
	}); err != nil {
		return nil, Stats{}, err
	}
	return b.Plane(), cs[0].S, nil
}

// ConsumeChunk simulates the predictor of every collector in cs over
// one trace chunk, reading its id column directly: each conditional
// branch's position, PC and direction are decoded, and the jumps
// counted, once for all of them. When mis is non-nil, mis[i] is the
// chunk's words of collector i's bit plane, zeroed, and bit j is set
// in it for every branch j the collector mispredicts. Each branch takes
// one Step, which predicts and then trains exactly as Predict followed
// by Update would.
func ConsumeChunk(ck *trace.Columns, cs []*Collector, mis [][]uint64) {
	if len(cs) == 0 {
		return
	}
	if ck.Wide() {
		consumeChunk(ck.Static, ck.ID16[:ck.N], cs, mis)
	} else {
		consumeChunk(ck.Static, ck.ID8[:ck.N], cs, mis)
	}
}

// consumeChunk is ConsumeChunk over one chunk's id column ids.
func consumeChunk[I trace.ID](static []trace.Static, ids []I, cs []*Collector, mis [][]uint64) {
	var jumps int64
	for j, id := range ids {
		st := &static[id]
		fl := st.Flags
		if fl&(trace.FlagBranch|trace.FlagJump) != trace.FlagBranch {
			if fl&trace.FlagJump != 0 {
				jumps++
			}
			continue
		}
		pc, taken := int64(st.PC), fl&trace.FlagTaken != 0
		for i, c := range cs {
			c.S.Branches++
			if c.P.Step(pc, taken) == taken {
				if taken {
					c.S.PredictedTaken++
				}
				continue
			}
			c.S.Mispredicts++
			if mis != nil {
				mis[i][j>>6] |= 1 << uint(j&63)
			}
		}
	}
	for _, c := range cs {
		c.S.Jumps += jumps
	}
}
