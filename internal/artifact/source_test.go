package artifact

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/funcsim"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// The in-memory byte source is the only one on platforms without mmap.
// These tests reach it on every platform by calling readFile, the
// opener's read branch, and framing its bytes exactly as open does.

// openFromMemory opens the artifact stored under identity through the
// in-memory byte source.
func openFromMemory(s *Store, kind Kind, identity string) (*file, error) {
	key := KeyOf(identity)
	data, err := s.readFile(key)
	if err != nil {
		return nil, err
	}
	return newFile(key, data, nil, kind, identity)
}

// sourceStore saves a profiled sha workload, a mem plane and a branch
// plane into a fresh store.
func sourceStore(t *testing.T) (s *Store, id WorkloadID, hier cache.HierarchyConfig) {
	t.Helper()
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder()
	if _, err := funcsim.RunProgram(spec.Build(), b); err != nil {
		t.Fatal(err)
	}
	tr := b.Trace()
	if s, err = Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	id = WorkloadID{Name: "sha"}
	prof := new(profile.Profiler)
	for i := range tr.Chunks() {
		prof.Add(&tr.Chunks()[i])
	}
	if _, err := s.SaveWorkload(id, tr, prof.Finish("sha", tr.Dictionary())); err != nil {
		t.Fatal(err)
	}
	hier = uarch.Default().Hier
	bb := trace.NewBytePlaneBuilder()
	for i := 0; i < 2*trace.ChunkLen+333; i++ {
		bb.Append(uint8(i % 13))
	}
	if err := s.SaveMemPlane(s.WorkloadKey(id), hier, bb.Plane(), cache.Stats{IL1Accesses: 9, DTLBMisses: 2}); err != nil {
		t.Fatal(err)
	}
	pb := trace.NewBitPlaneBuilder()
	for i := 0; i < trace.ChunkLen+65; i++ {
		pb.Append(i%3 == 0)
	}
	if err := s.SaveBranchPlane(s.WorkloadKey(id), "gshare", pb.Plane()); err != nil {
		t.Fatal(err)
	}
	return s, id, hier
}

// encoded returns a codec's stream.
func encoded(t *testing.T, w io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSourceMatchesMapped loads all three kinds through the
// in-memory byte source and through the store's loaders, which map
// the file where the platform allows: the results must be
// bit-identical, down to their memory footprint.
func TestReadSourceMatchesMapped(t *testing.T) {
	s, id, hier := sourceStore(t)
	wkey := s.WorkloadKey(id)

	tr, prof, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatal(err)
	}
	plane, st, err := s.LoadMemPlane(wkey, hier)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := s.LoadBranchPlane(wkey, "gshare")
	if err != nil {
		t.Fatal(err)
	}
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly":
		if n := s.MappedLoadCount(); n != 3 {
			t.Fatalf("%d of 3 loads were mapped", n)
		}
	}

	f, err := openFromMemory(s, KindWorkload, id.Identity())
	if err != nil {
		t.Fatal(err)
	}
	rtr, rprof, err := f.workload()
	if err != nil {
		t.Fatal(err)
	}
	if *rprof != *prof {
		t.Fatal("profile differs between byte sources")
	}
	if rtr.Len() != tr.Len() || rtr.SizeBytes() != tr.SizeBytes() || !slices.Equal(tracetest.Records(rtr), tracetest.Records(tr)) {
		t.Fatal("trace differs between byte sources")
	}
	if !bytes.Equal(encoded(t, rtr), encoded(t, tr)) {
		t.Fatal("trace re-encodes differently between byte sources")
	}

	if f, err = openFromMemory(s, KindMemPlane, memPlaneIdentity(wkey, hier)); err != nil {
		t.Fatal(err)
	}
	rplane, rst, _, _, err := f.memPlane()
	if err != nil {
		t.Fatal(err)
	}
	if rplane.Mapped() || rst != st || !rplane.Equal(plane) || rplane.SizeBytes() != plane.SizeBytes() {
		t.Fatal("mem plane or stats differ between byte sources")
	}
	if !bytes.Equal(encoded(t, rplane), encoded(t, plane)) {
		t.Fatal("mem plane re-encodes differently between byte sources")
	}

	if f, err = openFromMemory(s, KindBranchPlane, branchPlaneIdentity(wkey, "gshare")); err != nil {
		t.Fatal(err)
	}
	rbp, err := f.branchPlane()
	if err != nil {
		t.Fatal(err)
	}
	if !rbp.Equal(bp) || rbp.Count() != bp.Count() || rbp.SizeBytes() != bp.SizeBytes() {
		t.Fatal("branch plane differs between byte sources")
	}
	if !bytes.Equal(encoded(t, rbp), encoded(t, bp)) {
		t.Fatal("branch plane re-encodes differently between byte sources")
	}
}

// TestReadSourceRejectsCorruption runs the store's corruption shapes
// through the in-memory byte source: each must fail as ErrInvalid.
func TestReadSourceRejectsCorruption(t *testing.T) {
	resign := func(d []byte) []byte {
		sum := sha256.Sum256(d[:len(d)-sha256.Size])
		copy(d[len(d)-sha256.Size:], sum[:])
		return d
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }},
		// d[len(d)-40] lies in the profile section.
		{"bit-flip", func(d []byte) []byte {
			d[len(d)-40] ^= 0x01
			return d
		}},
		{"resigned-chunk-flip", func(d []byte) []byte {
			d[len(d)/2] ^= 0xFF
			return resign(d)
		}},
		{"resigned-profile-flip", func(d []byte) []byte {
			d[len(d)-40] ^= 0x01
			return resign(d)
		}},
		// A flipped digest leaves every section intact: only the
		// whole-file SHA-256 of this source can catch it.
		{"digest-flip", func(d []byte) []byte {
			d[len(d)-1] ^= 0x01
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, id, _ := sourceStore(t)
			path := s.path(s.WorkloadKey(id))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := openFromMemory(s, KindWorkload, id.Identity())
			if err == nil {
				_, _, err = f.workload()
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("err = %v, want ErrInvalid", err)
			}
		})
	}
}
