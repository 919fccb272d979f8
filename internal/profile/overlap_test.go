package profile_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/funcsim"
	"repro/internal/harness"
	"repro/internal/profile"
	"repro/internal/randprog"
	"repro/internal/trace"
)

// FuzzProfileOverlapped profiles a generated program through the
// harness, which computes the profile beside execution on each chunk
// the trace builder seals, re-executing the program up to a floor past
// two chunk edges. The profile must equal Of over the finished trace
// and the per-record reference.
func FuzzProfileOverlapped(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(12), uint8(5), uint16(0))
	f.Add(int64(7), uint8(0), uint8(1), uint8(1), uint16(4099))
	f.Add(int64(-3), uint8(9), uint8(30), uint8(19), uint16(65535))
	f.Fuzz(func(t *testing.T, seed int64, blocks, insts, trips uint8, extra uint16) {
		p := randprog.Generate(randprog.Config{
			Seed:       seed,
			MaxBlocks:  int(blocks % 10),
			MaxInsts:   1 + int(insts%24),
			OuterTrips: 1 + int64(trips%20),
			MemWords:   64,
		})
		minDyn := 2*trace.ChunkLen + 1 + int64(extra)%(2*trace.ChunkLen)
		pw, err := harness.ProfileProgramScaledCtx(context.Background(), p, minDyn)
		if err != nil {
			t.Fatal(err)
		}
		if run, err := funcsim.RunProgram(p, nil); err != nil || pw.Trace.Len()%run != 0 || pw.Trace.Len() < minDyn {
			t.Fatalf("trace of %d instructions is not whole runs of %d (err %v) reaching %d", pw.Trace.Len(), run, err, minDyn)
		}
		if want := profile.Of(pw.Name, pw.Trace); !reflect.DeepEqual(pw.Prof, want) {
			t.Fatalf("profile computed beside execution differs from Of:\n got  %+v\n want %+v", pw.Prof, want)
		}
		if want := profile.Reference(pw.Name, pw.Trace); !reflect.DeepEqual(pw.Prof, want) {
			t.Fatalf("profile computed beside execution differs from the reference:\n got  %+v\n want %+v", pw.Prof, want)
		}
	})
}
