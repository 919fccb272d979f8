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
// every design point sharing the predictor. Cancellation is observed
// between trace chunks (the same granularity as trace.ReplayCtx),
// returning ctx.Err() with a nil plane; a completed annotation is
// bit-identical to an uncancelled one.
func AnnotateMispredicts(ctx context.Context, tr *trace.Trace, p Predictor) (*trace.BitPlane, Stats, error) {
	done := ctx.Done()
	var s Stats
	b := trace.NewBitPlaneBuilder()
	for cur := tr.Cursor(); ; {
		select {
		case <-done:
			return nil, Stats{}, ctx.Err()
		default:
		}
		ck, ok := cur.Next()
		if !ok {
			return b.Plane(), s, nil
		}
		for j := 0; j < ck.N; j++ {
			st := &ck.Static[ck.ID[j]]
			fl := st.Flags
			if fl&(trace.FlagBranch|trace.FlagJump) != trace.FlagBranch {
				if fl&trace.FlagJump != 0 {
					s.Jumps++
				}
				b.Append(false)
				continue
			}
			pc := int64(st.PC)
			taken := fl&trace.FlagTaken != 0
			pred := p.Predict(pc)
			p.Update(pc, taken)
			s.Branches++
			if pred != taken {
				s.Mispredicts++
			} else if taken {
				s.PredictedTaken++
			}
			b.Append(pred != taken)
		}
	}
}
