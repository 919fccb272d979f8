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
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// mmapPlatform reports whether this build serves loads through a file
// mapping (elsewhere every load reads the file into memory).
func mmapPlatform() bool {
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "dragonfly":
		return true
	}
	return false
}

// TestLoadWorkloadUsesMappedPath pins that a healthy artifact is
// served through the mapping: the load increments the store's mapped
// counter and the returned trace is bit-identical to what was saved,
// down to its memory footprint.
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
	tr, prof, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatal(err)
	}
	if s.MappedLoadCount() != 1 {
		t.Fatal("LoadWorkload did not take the mapped path on a healthy artifact")
	}
	if tr.Len() != pw.Trace.Len() || tr.SizeBytes() != pw.Trace.SizeBytes() || *prof != *pw.Prof {
		t.Fatal("mapped load differs from the saved workload")
	}
	for i := int64(0); i < tr.Len(); i += 509 {
		if tracetest.At(tr, i) != tracetest.At(pw.Trace, i) {
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
	plane, got, err := s.LoadMemPlane("wkey", hier)
	if err != nil {
		t.Fatal(err)
	}
	if s.MappedLoadCount() != 1 {
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
	bp, err := s.LoadBranchPlane("wkey", "gshare")
	if err != nil {
		t.Fatal(err)
	}
	if s.MappedLoadCount() != 2 {
		t.Fatal("LoadBranchPlane did not take the mapped path")
	}
	if !bp.Equal(pb.Plane()) {
		t.Fatal("branch plane differs after mapped load")
	}
}

// TestMappedLoadRejectsCorruption drives the corruption shapes of the
// store's own tests through a load: every one must surface as
// ErrInvalid, never as a served artifact and never through the mapped
// counter — so callers fall back to fresh profiling.
func TestMappedLoadRejectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }},
		// Resigned so the whole-file digest passes: only the trace
		// codec's per-chunk CRC — which both byte sources verify —
		// catches it.
		{"chunk-crc", func(d []byte) []byte {
			d[len(d)/2] ^= 0xFF
			return resign(d)
		}},
		// A flip in the profile payload (a scalar section with no
		// internal checksums), resigned: the per-section CRC is the
		// only guard.
		{"profile-crc", func(d []byte) []byte {
			d[len(d)-40] ^= 0x01
			return resign(d)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, id := corruptSavedWorkload(t, tc.mutate)
			if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
				t.Fatalf("corrupt artifact: err = %v, want ErrInvalid", err)
			}
			if s.MappedLoadCount() != 0 {
				t.Fatal("corrupt artifact was served through the mapped path")
			}
		})
	}
}

// resignTraceSection replaces the trace stream inside an artifact file
// image with mutate's result, which may change its length, then
// recomputes the section length and CRC and the whole-file digest, so
// every checksum on the way passes.
func resignTraceSection(d []byte, mutate func(stream []byte) []byte) []byte {
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
		if name == "trace" {
			st := mutate(append([]byte(nil), d[off+8:off+8+n]...))
			out := le.AppendUint64(append([]byte(nil), d[:off]...), uint64(len(st)))
			out = le.AppendUint32(append(out, st...), crc32c(st))
			return resign(append(out, d[off+8+n+4:]...))
		}
		off += 8 + n + 4
	}
	panic("artifact has no trace section")
}

func crc32c(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

// TestLoadRejectsResignedOutOfRangeTrace damages a stored trace behind
// re-signed checksums — an instruction referencing an entry past the
// dictionary, a dictionary entry naming a register outside the ISA, a
// dictionary of trace.MaxTuples+1 entries, a header count of loads and
// stores that disagrees with the ids, an address column one entry short
// or long — so only the trace decoders' range, count and framing checks
// can reject it. The load must refuse it, and the cached profiling
// entry point must fall back to fresh profiling.
func TestLoadRejectsResignedOutOfRangeTrace(t *testing.T) {
	le := binary.LittleEndian
	// The trace stream layout (see internal/trace/codec.go): a 16-byte
	// header (instructions, loads and stores), the dictionary count and
	// 14-byte tuples (flags at byte 10) behind a CRC, then chunk 0's id
	// width w, w-byte id column, 4-byte address column and CRC.
	const hdr, tupleBytes = 16, 14
	chunk0 := func(st []byte) (dictEnd, w int, ids []byte, naddr int) {
		dictEnd = hdr + 4 + tupleBytes*int(le.Uint32(st[hdr:]))
		w = int(st[dictEnd+4])
		ids = st[dictEnd+5 : dictEnd+5+w*int(min(le.Uint64(st), trace.ChunkLen))]
		for i := 0; i < len(ids); i += w {
			id := int(ids[i])
			if w == 2 {
				id = int(le.Uint16(ids[i:]))
			}
			if st[hdr+4+tupleBytes*id+10]&trace.FlagMem != 0 {
				naddr++
			}
		}
		return dictEnd, w, ids, naddr
	}
	// resize gives chunk 0's address column delta more (or fewer)
	// entries and the header count to match, then re-signs the chunk.
	resize := func(st []byte, delta int) []byte {
		dictEnd, _, ids, naddr := chunk0(st)
		start := dictEnd + 4
		end := start + 1 + len(ids) + 4*naddr
		body := append([]byte(nil), st[start:end+4*min(delta, 0)]...)
		for ; delta > 0; delta-- {
			body = le.AppendUint32(body, 7)
		}
		out := append(append([]byte(nil), st[:start]...), body...)
		out = le.AppendUint32(out, crc32c(body))
		le.PutUint64(out[8:], uint64(int(le.Uint64(st[8:]))+(len(body)-(end-start))/4))
		return append(out, st[end+4:]...)
	}
	cases := map[string]func(stream []byte) []byte{
		"dictionary-id": func(st []byte) []byte {
			dictEnd, w, ids, naddr := chunk0(st)
			if m := le.Uint32(st[hdr:]); w == 2 {
				le.PutUint16(ids, uint16(m))
			} else {
				ids[0] = uint8(m)
			}
			body := st[dictEnd+4 : dictEnd+5+len(ids)+4*naddr]
			le.PutUint32(st[dictEnd+4+len(body):], crc32c(body))
			return st
		},
		"register": func(st []byte) []byte {
			dictEnd, _, _, _ := chunk0(st)
			st[hdr+4+11] = isa.NumRegs // entry 0's Dst byte
			le.PutUint32(st[dictEnd:], crc32c(st[hdr:dictEnd]))
			return st
		},
		"dictionary-count": func(st []byte) []byte {
			// Copies of entry 0 pad the dictionary past the cap; no id
			// references them.
			dictEnd, _, _, _ := chunk0(st)
			out := append([]byte(nil), st[:dictEnd]...)
			for range trace.MaxTuples + 1 - int(le.Uint32(st[hdr:])) {
				out = append(out, st[hdr+4:hdr+4+tupleBytes]...)
			}
			le.PutUint32(out[hdr:], trace.MaxTuples+1)
			out = le.AppendUint32(out, crc32c(out[hdr:]))
			return append(out, st[dictEnd+4:]...)
		},
		"header-count": func(st []byte) []byte {
			le.PutUint64(st[8:], le.Uint64(st[8:])+1)
			return st
		},
		"truncated-addr": func(st []byte) []byte { return resize(st, -1) },
		"trailing-addr":  func(st []byte) []byte { return resize(st, 1) },
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
			if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) || !errors.Is(err, trace.ErrCorrupt) {
				t.Fatalf("LoadWorkload err = %v, want ErrInvalid wrapping the codec's ErrCorrupt", err)
			}
			if s.MappedLoadCount() != 0 {
				t.Fatal("corrupt trace was served through the mapped path")
			}
			pw, hit, err := harness.ProfileProgramCached(s, "sha", 0, spec.Build)
			if err != nil || hit {
				t.Fatalf("corrupt artifact: hit=%v err=%v, want a fresh profile", hit, err)
			}
			if pw.Trace.Len() != fresh.Trace.Len() || tracetest.At(pw.Trace, 0) != tracetest.At(fresh.Trace, 0) {
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
	want := tracetest.At(tr, tr.Len()/2)
	if _, err := s.SaveWorkload(id, pw.Trace, pw.Prof); err != nil {
		t.Fatal(err)
	}
	if got := tracetest.At(tr, tr.Len()/2); got != want {
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

// TestPreviousFormatVersionIsProfiledAgain stores a workload under the
// previous format version (version 5: two-byte ids in every chunk),
// re-signed so that only the version check can reject it. The load
// must refuse it, and the cached profiling entry point must profile the
// program again and store a current-version artifact in its place.
func TestPreviousFormatVersionIsProfiledAgain(t *testing.T) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	fresh, _, err := harness.ProfileProgramCached(s, "sha", 0, spec.Build)
	if err != nil {
		t.Fatal(err)
	}
	id := artifact.WorkloadID{Name: "sha", Code: spec.Build().Fingerprint()}
	path := storedPath(s, s.WorkloadKey(id))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:], artifact.FormatVersion-1)
	if err := os.WriteFile(path, resign(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
		t.Fatalf("LoadWorkload of a version %d artifact: err = %v, want ErrInvalid", artifact.FormatVersion-1, err)
	}
	pw, hit, err := harness.ProfileProgramCached(s, "sha", 0, spec.Build)
	if err != nil || hit {
		t.Fatalf("previous-version artifact: hit=%v err=%v, want a fresh profile", hit, err)
	}
	if pw.Trace.EncodedSize() != fresh.Trace.EncodedSize() || tracetest.At(pw.Trace, pw.Trace.Len()-1) != tracetest.At(fresh.Trace, fresh.Trace.Len()-1) {
		t.Fatal("profile taken again differs from the original")
	}
	if _, _, err := s.LoadWorkload(id); err != nil {
		t.Fatalf("the artifact stored in its place does not load: %v", err)
	}
}
