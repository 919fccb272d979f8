package artifact_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/trace/tracetest"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// profiledShaOnce profiles the sha benchmark once per test binary.
var profiledShaOnce = sync.OnceValues(func() (*harness.Profiled, error) {
	spec, err := workloads.ByName("sha")
	if err != nil {
		return nil, err
	}
	return harness.ProfileProgram(spec.Build())
})

func profiledSha(t *testing.T) *harness.Profiled {
	t.Helper()
	pw, err := profiledShaOnce()
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storedPath returns the file a key lives at.
func storedPath(s *artifact.Store, key string) string {
	return filepath.Join(s.Dir(), key+artifact.Ext)
}

func TestWorkloadRoundTripAcrossStores(t *testing.T) {
	pw := profiledSha(t)
	dir := t.TempDir()
	s1, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := artifact.WorkloadID{Name: "sha"}
	key, err := s1.SaveWorkload(id, pw.Trace, pw.Prof)
	if err != nil {
		t.Fatal(err)
	}
	if key != s1.WorkloadKey(id) {
		t.Fatalf("SaveWorkload returned key %s, WorkloadKey computes %s", key, s1.WorkloadKey(id))
	}
	if !s1.HasWorkload(id) {
		t.Fatal("HasWorkload is false right after SaveWorkload")
	}

	// A second Store over the same directory models a separate process.
	s2, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, prof, err := s2.LoadWorkload(id)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != pw.Trace.Len() {
		t.Fatalf("loaded trace has %d instructions, want %d", tr.Len(), pw.Trace.Len())
	}
	for i := int64(0); i < tr.Len(); i += 997 {
		if a, b := tracetest.At(tr, i), tracetest.At(pw.Trace, i); a != b {
			t.Fatalf("instruction %d differs after disk round trip", i)
		}
	}
	if *prof != *pw.Prof {
		t.Fatalf("loaded profile differs from the recorded one")
	}

	// The trace must drive the detailed simulator to bit-identical
	// results (full Result, including cache and branch statistics).
	cfg := uarch.Default()
	fresh := &harness.Profiled{Name: "sha", Trace: pw.Trace, Prof: pw.Prof}
	loaded := &harness.Profiled{Name: "sha", Trace: tr, Prof: prof}
	fr, err := fresh.SimulateDetailedBatchCtx(context.Background(), []uarch.Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := loaded.SimulateDetailedBatchCtx(context.Background(), []uarch.Config{cfg}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fr[0] != lr[0] {
		t.Fatalf("detailed simulation differs after disk round trip:\n fresh  %+v\n loaded %+v", fr[0], lr[0])
	}
}

func TestSaveIsByteDeterministic(t *testing.T) {
	pw := profiledSha(t)
	id := artifact.WorkloadID{Name: "sha"}
	var files [2][]byte
	for i := range files {
		s := openStore(t)
		key, err := s.SaveWorkload(id, pw.Trace, pw.Prof)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(storedPath(s, key))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("two saves of the same workload produced different bytes; content addressing depends on determinism")
	}
}

func TestLoadMissingReturnsNotFound(t *testing.T) {
	s := openStore(t)
	if _, _, err := s.LoadWorkload(artifact.WorkloadID{Name: "sha"}); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("missing artifact: err = %v, want ErrNotFound", err)
	}
	if _, err := s.LoadBranchPlane("deadbeef", "gshare"); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("missing branch plane: err = %v, want ErrNotFound", err)
	}
}

// corruptSavedWorkload saves sha and applies mutate to the stored
// file, returning the store.
func corruptSavedWorkload(t *testing.T, mutate func([]byte) []byte) (*artifact.Store, artifact.WorkloadID) {
	t.Helper()
	pw := profiledSha(t)
	s := openStore(t)
	id := artifact.WorkloadID{Name: "sha"}
	key, err := s.SaveWorkload(id, pw.Trace, pw.Prof)
	if err != nil {
		t.Fatal(err)
	}
	path := storedPath(s, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return s, id
}

// resign recomputes the SHA-256 trailer after a deliberate mutation,
// so tests can reach the checks behind the whole-file digest.
func resign(d []byte) []byte {
	body := d[:len(d)-sha256.Size]
	sum := sha256.Sum256(body)
	return append(append([]byte(nil), body...), sum[:]...)
}

func TestLoadRejectsTruncatedFile(t *testing.T) {
	s, id := corruptSavedWorkload(t, func(d []byte) []byte { return d[:len(d)/3] })
	if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
		t.Fatalf("truncated artifact: err = %v, want ErrInvalid", err)
	}
}

func TestLoadRejectsWrongFormatVersion(t *testing.T) {
	s, id := corruptSavedWorkload(t, func(d []byte) []byte {
		// Patch the version header and re-sign the file, so only the
		// version check can reject it.
		binary.LittleEndian.PutUint32(d[4:], artifact.FormatVersion+1)
		return resign(d)
	})
	if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
		t.Fatalf("wrong-version artifact: err = %v, want ErrInvalid", err)
	}
}

func TestLoadRejectsCorruptedChunk(t *testing.T) {
	s, id := corruptSavedWorkload(t, func(d []byte) []byte {
		// Flip a byte in the middle of the trace payload and re-sign
		// the file: the whole-file digest then passes, and the
		// per-chunk CRC inside the trace codec must catch it.
		d[len(d)/2] ^= 0xFF
		return resign(d)
	})
	if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
		t.Fatalf("corrupted-chunk artifact: err = %v, want ErrInvalid", err)
	}
}

func TestLoadRejectsBitFlipWithoutResign(t *testing.T) {
	s, id := corruptSavedWorkload(t, func(d []byte) []byte {
		d[len(d)-40] ^= 0x01
		return d
	})
	if _, _, err := s.LoadWorkload(id); !errors.Is(err, artifact.ErrInvalid) {
		t.Fatalf("bit-flipped artifact: err = %v, want ErrInvalid", err)
	}
}

func TestConcurrentWritersSameKey(t *testing.T) {
	pw := profiledSha(t)
	s := openStore(t)
	id := artifact.WorkloadID{Name: "sha"}
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.SaveWorkload(id, pw.Trace, pw.Prof)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	tr, prof, err := s.LoadWorkload(id)
	if err != nil {
		t.Fatalf("load after concurrent writes: %v", err)
	}
	if tr.Len() != pw.Trace.Len() || prof.N != pw.Prof.N {
		t.Fatal("artifact after concurrent writes does not match the workload")
	}
	// No temp residue.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != s.WorkloadKey(id)+artifact.Ext {
			t.Fatalf("unexpected residue %q in store after concurrent writes", e.Name())
		}
	}
}

func TestPlaneRoundTrip(t *testing.T) {
	bb := trace.NewBytePlaneBuilder()
	for i := 0; i < 3*trace.ChunkLen/2; i++ {
		bb.Append(uint8(i % 7))
	}
	st := cache.Stats{IL1Accesses: 123, DL1Misses: 45, Writebacks: 6}
	s := openStore(t)
	hier := uarch.Default().Hier
	if err := s.SaveMemPlane("wkey", hier, bb.Plane(), st); err != nil {
		t.Fatal(err)
	}
	plane, got, err := s.LoadMemPlane("wkey", hier)
	if err != nil {
		t.Fatal(err)
	}
	if !plane.Equal(bb.Plane()) || got != st {
		t.Fatal("mem plane or stats differ after disk round trip")
	}
	// A different hierarchy geometry must be a different key.
	other := hier
	other.L2.SizeBytes *= 2
	if _, _, err := s.LoadMemPlane("wkey", other); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("different hierarchy: err = %v, want ErrNotFound", err)
	}

	pb := trace.NewBitPlaneBuilder()
	for i := 0; i < trace.ChunkLen+17; i++ {
		pb.Append(i%5 == 0)
	}
	if err := s.SaveBranchPlane("wkey", "gshare", pb.Plane()); err != nil {
		t.Fatal(err)
	}
	bp, err := s.LoadBranchPlane("wkey", "gshare")
	if err != nil {
		t.Fatal(err)
	}
	if !bp.Equal(pb.Plane()) {
		t.Fatal("branch plane differs after disk round trip")
	}
	if _, err := s.LoadBranchPlane("wkey", "hybrid"); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("different predictor: err = %v, want ErrNotFound", err)
	}
}

func TestListAndKinds(t *testing.T) {
	pw := profiledSha(t)
	s := openStore(t)
	id := artifact.WorkloadID{Name: "sha"}
	key, err := s.SaveWorkload(id, pw.Trace, pw.Prof)
	if err != nil {
		t.Fatal(err)
	}
	hier := uarch.Default().Hier
	bb := trace.NewBytePlaneBuilder()
	bb.Append(0)
	if err := s.SaveMemPlane(key, hier, bb.Plane(), cache.Stats{}); err != nil {
		t.Fatal(err)
	}
	// Foreign and hidden files are skipped.
	if err := os.WriteFile(filepath.Join(s.Dir(), "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("List returned %d entries, want 2: %+v", len(infos), infos)
	}
	kinds := map[string]bool{}
	for _, in := range infos {
		kinds[in.Kind] = true
		if in.SizeBytes <= 0 || in.Key == "" || in.Identity == "" {
			t.Fatalf("incomplete listing entry: %+v", in)
		}
	}
	if !kinds["workload"] || !kinds["mem-plane"] {
		t.Fatalf("List kinds = %v, want workload and mem-plane", kinds)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *artifact.Store
	if _, _, err := s.LoadWorkload(artifact.WorkloadID{Name: "sha"}); !errors.Is(err, artifact.ErrNotFound) {
		t.Fatalf("nil store load: err = %v, want ErrNotFound", err)
	}
	if key, err := s.SaveWorkload(artifact.WorkloadID{Name: "sha"}, nil, &profile.Profile{}); err != nil || key != "" {
		t.Fatalf("nil store save: key=%q err=%v, want no-op", key, err)
	}
	if s.HasWorkload(artifact.WorkloadID{Name: "sha"}) {
		t.Fatal("nil store claims to have a workload")
	}
	if infos, err := s.List(); err != nil || infos != nil {
		t.Fatalf("nil store list: %v, %v", infos, err)
	}
	if err := s.Probe(); err == nil {
		t.Fatal("nil store probe should fail")
	}
}

func TestIdentityIncludesScalingParameters(t *testing.T) {
	s := openStore(t)
	a := s.WorkloadKey(artifact.WorkloadID{Name: "sha"})
	b := s.WorkloadKey(artifact.WorkloadID{Name: "sha", MinDynInsts: 1 << 20})
	c := s.WorkloadKey(artifact.WorkloadID{Name: "dijkstra"})
	if a == b || a == c || b == c {
		t.Fatalf("workload keys must differ across name and dyninsts: %s %s %s", a, b, c)
	}
}
