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
// every design point sharing the predictor. It is one Collector's
// ConsumeChunk per chunk, recording the plane. Cancellation is
// observed between trace chunks (trace.EachChunk), returning ctx.Err()
// with a nil plane; a completed annotation is bit-identical to an
// uncancelled one.
func AnnotateMispredicts(ctx context.Context, tr *trace.Trace, p Predictor) (*trace.BitPlane, Stats, error) {
	c := NewCollector(p)
	b := trace.NewBitPlaneBuilder()
	if err := tr.EachChunk(ctx, func(ck *trace.Columns) { c.ConsumeChunk(ck, b.AppendChunk(ck.N)) }); err != nil {
		return nil, Stats{}, err
	}
	return b.Plane(), c.S, nil
}

// ConsumeChunk simulates the predictor over one trace chunk, reading
// its id column directly: the per-chunk step of both Collector and
// AnnotateMispredicts. When mis is non-nil (the chunk's words of a bit
// plane, zeroed) it also sets bit j for every mispredicted branch j of
// the chunk. The statistics are exactly Consume's over the same
// instructions.
func (c *Collector) ConsumeChunk(ck *trace.Columns, mis []uint64) {
	for j, id := range ck.ID[:ck.N] {
		st := &ck.Static[id]
		fl := st.Flags
		if fl&(trace.FlagBranch|trace.FlagJump) != trace.FlagBranch {
			if fl&trace.FlagJump != 0 {
				c.S.Jumps++
			}
			continue
		}
		pc := int64(st.PC)
		taken := fl&trace.FlagTaken != 0
		pred := c.P.Predict(pc)
		c.P.Update(pc, taken)
		c.S.Branches++
		if pred == taken {
			if taken {
				c.S.PredictedTaken++
			}
			continue
		}
		c.S.Mispredicts++
		if mis != nil {
			mis[j>>6] |= 1 << uint(j&63)
		}
	}
}
