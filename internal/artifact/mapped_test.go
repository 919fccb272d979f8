package artifact_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// mmapPlatform reports whether this build serves loads through the
// mapped path (the !unix fallback decodes everywhere).
func mmapPlatform() bool {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly":
		return true
	}
	return false
}

// TestLoadWorkloadUsesMappedPath pins that a healthy artifact is
// served through the mapping: the load increments the mapped counter
// and the returned trace is bit-identical to what was saved, down to
// its memory footprint.
func TestLoadWorkloadUsesMappedPath(t *testing.T) {
	if !mmapPlatform() {
		t.Skip("mmap unsupported on this platform")
	}
	pw := profiledSha(t)
	s := openStore(t)
	id := artifact.WorkloadID{Name: "sha"}
	if _, err := s.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}
	before := artifact.MappedLoadCount()
	tr, prof, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatal(err)
	}
	if artifact.MappedLoadCount() != before+1 {
		t.Fatal("LoadWorkload did not take the mapped path on a healthy artifact")
	}
	if tr.Len() != pw.Trace.Len() || tr.SizeBytes() != pw.Trace.SizeBytes() || *prof != *pw.Prof {
		t.Fatal("mapped load differs from the saved workload")
	}
	for i := int64(0); i < tr.Len(); i += 509 {
		if tr.At(i) != pw.Trace.At(i) {
			t.Fatalf("instruction %d differs on the mapped path", i)
		}
	}
}

// TestLoadPlanesUseMappedPath pins the plane loads: the mem plane is
// aliased from the mapping, the branch plane decodes but still skips
// the whole-file digest, and both round-trip exactly.
func TestLoadPlanesUseMappedPath(t *testing.T) {
	if !mmapPlatform() {
		t.Skip("mmap unsupported on this platform")
	}
	s := openStore(t)
	hier := uarch.Default().Hier
	bb := trace.NewBytePlaneBuilder()
	for i := 0; i < trace.ChunkLen+333; i++ {
		bb.Append(uint8(i % 11))
	}
	st := cache.Stats{IL1Accesses: 7, DL1Misses: 3}
	if err := s.SaveMemPlane("wkey", hier, bb.Plane(), st); err != nil {
		t.Fatal(err)
	}
	before := artifact.MappedLoadCount()
	plane, got, err := s.LoadMemPlane("wkey", hier)
	if err != nil {
		t.Fatal(err)
	}
	if artifact.MappedLoadCount() != before+1 {
		t.Fatal("LoadMemPlane did not take the mapped path")
	}
	if !plane.Mapped() || !plane.Equal(bb.Plane()) || got != st {
		t.Fatal("mapped mem plane differs from the saved one")
	}

	pb := trace.NewBitPlaneBuilder()
	for i := 0; i < trace.ChunkLen+17; i++ {
		pb.Append(i%3 == 0)
	}
	if err := s.SaveBranchPlane("wkey", "gshare", pb.Plane()); err != nil {
		t.Fatal(err)
	}
	before = artifact.MappedLoadCount()
	bp, err := s.LoadBranchPlane("wkey", "gshare")
	if err != nil {
		t.Fatal(err)
	}
	if artifact.MappedLoadCount() != before+1 {
		t.Fatal("LoadBranchPlane did not take the mapped path")
	}
	if !bp.Equal(pb.Plane()) {
		t.Fatal("branch plane differs after mapped load")
	}
}

// TestMappedLoadRejectsCorruption drives the PR 5 corruption shapes
// through the mapped reader: every one must surface as ErrInvalid
// (after falling back to the decode path), never as a served artifact
// and never through the mapped counter — so callers fall back to
// fresh profiling exactly as they did on the decode path.
func TestMappedLoadRejectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }},
		// Resigned so the whole-file digest passes: only the trace
		// codec's per-chunk CRC — which both paths verify — catches it.
		{"chunk-crc", func(d []byte) []byte {
			d[len(d)/2] ^= 0xFF
			return resign(d)
		}},
		// A flip in the profile payload (a scalar section with no
		// internal checksums), resigned: the per-section CRC is the
		// only guard on the mapped path.
		{"profile-crc", func(d []byte) []byte {
			d[len(d)-40] ^= 0x01
			return resign(d)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, id := corruptSavedWorkload(t, tc.mutate)
			before := artifact.MappedLoadCount()
			if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
				t.Fatalf("corrupt artifact: err = %v, want ErrInvalid", err)
			}
			if artifact.MappedLoadCount() != before {
				t.Fatal("corrupt artifact was served through the mapped path")
			}
		})
	}
}

// resignTraceSection applies mutate to the trace stream inside an
// artifact file image, then recomputes the section CRC and the
// whole-file digest, so every checksum on the way passes.
func resignTraceSection(d []byte, mutate func(stream []byte)) []byte {
	le := binary.LittleEndian
	off := 9 // magic, version, kind
	off += 4 + int(le.Uint32(d[off:]))
	nsec := int(le.Uint32(d[off:]))
	off += 4
	for i := 0; i < nsec; i++ {
		nameLen := int(le.Uint32(d[off:]))
		name := string(d[off+4 : off+4+nameLen])
		off += 4 + nameLen
		n := int(le.Uint64(d[off:]))
		off += 8
		if name == "trace" {
			mutate(d[off : off+n])
			le.PutUint32(d[off+n:], crc32c(d[off:off+n]))
		}
		off += n + 4
	}
	return resign(d)
}

func crc32c(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// TestLoadRejectsResignedOutOfRangeTrace damages a stored trace behind
// re-signed checksums — an instruction referencing an entry past the
// dictionary, a dictionary entry naming a register outside the ISA —
// so only the trace decoders' range checks can reject it. Both load
// paths must refuse it, and the cached profiling entry point must fall
// back to fresh profiling.
func TestLoadRejectsResignedOutOfRangeTrace(t *testing.T) {
	le := binary.LittleEndian
	const tupleBytes = 14 // encoded dictionary entry
	cases := map[string]func(stream []byte){
		"dictionary-id": func(st []byte) {
			m := le.Uint32(st[8:])
			chunk0 := 12 + tupleBytes*int(m) + 4
			body := st[chunk0 : chunk0+8*int(min(le.Uint64(st), trace.ChunkLen))]
			le.PutUint32(body, m)
			le.PutUint32(st[chunk0+len(body):], crc32c(body))
		},
		"register": func(st []byte) {
			dictEnd := 12 + tupleBytes*int(le.Uint32(st[8:]))
			st[12+11] = isa.NumRegs // entry 0's Dst byte
			le.PutUint32(st[dictEnd:], crc32c(st[8:dictEnd]))
		},
	}
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := openStore(t)
			fresh, hit, err := harness.ProfileProgramCached(s, "sha", 0, spec.Build)
			if err != nil || hit {
				t.Fatalf("cold profile: hit=%v err=%v", hit, err)
			}
			id := artifact.WorkloadID{Name: "sha", Code: spec.Build().Fingerprint()}
			path := storedPath(s, s.WorkloadKey(id))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, resignTraceSection(data, mutate), 0o644); err != nil {
				t.Fatal(err)
			}
			before := artifact.MappedLoadCount()
			if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
				t.Fatalf("LoadWorkload err = %v, want ErrInvalid", err)
			}
			if artifact.MappedLoadCount() != before {
				t.Fatal("corrupt trace was served through the mapped path")
			}
			pw, hit, err := harness.ProfileProgramCached(s, "sha", 0, spec.Build)
			if err != nil || hit {
				t.Fatalf("corrupt artifact: hit=%v err=%v, want a fresh profile", hit, err)
			}
			if pw.Trace.Len() != fresh.Trace.Len() || pw.Trace.At(0) != fresh.Trace.At(0) {
				t.Fatal("fallback profile differs from the original")
			}
		})
	}
}

// TestMappedLoadSurvivesRewrite pins the concurrent-rewrite contract:
// re-saving a key replaces the directory entry atomically, a trace
// loaded from the old file stays unchanged, and new loads see the new
// file.
func TestMappedLoadSurvivesRewrite(t *testing.T) {
	if !mmapPlatform() {
		t.Skip("mmap unsupported on this platform")
	}
	pw := profiledSha(t)
	s := openStore(t)
	id := artifact.WorkloadID{Name: "sha"}
	if _, err := s.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}
	tr, _, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.At(tr.Len() / 2)
	if _, err := s.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}
	if got := tr.At(tr.Len() / 2); got != want {
		t.Fatalf("mapped trace changed under a concurrent rewrite: %+v -> %+v", want, got)
	}
	tr2, _, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatalf("load after rewrite: %v", err)
	}
	if tr2.Len() != tr.Len() {
		t.Fatal("reloaded trace differs after rewrite")
	}
}
