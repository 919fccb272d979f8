package artifact_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/faultfs"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// planeOf builds an n-byte plane whose byte i is uint8(i*seed).
func planeOf(n int, seed int) *trace.BytePlane {
	bb := trace.NewBytePlaneBuilder()
	for i := 0; i < n; i++ {
		bb.Append(uint8(i * seed))
	}
	return bb.Plane()
}

// hierN returns the hierarchy of uarch.Default with an L2 of kb KB.
func hierN(t *testing.T, kb int) cache.HierarchyConfig {
	t.Helper()
	cfg, err := uarch.Table2Config(uarch.Default(), 2, 7, kb, 8, "gshare")
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Hier
}

// TestAliasRoundTrip pins the alias record: a batch over a body and
// two aliases of it maps the body once and hands every hierarchy the
// same plane with its own statistics.
func TestAliasRoundTrip(t *testing.T) {
	s, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h0, h1, h2 := hierN(t, 128), hierN(t, 256), hierN(t, 512)
	p := planeOf(3*trace.ChunkLen+7, 3)
	if err := s.SaveMemPlane("wkey", h0, p, cache.Stats{IL1Accesses: 1}); err != nil {
		t.Fatal(err)
	}
	for i, h := range []cache.HierarchyConfig{h1, h2} {
		if err := s.SaveMemPlaneAlias("wkey", h, h0, p.Len(), cache.Stats{IL1Accesses: int64(2 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	rs := s.LoadMemPlanes("wkey", []cache.HierarchyConfig{h2, h0, h1})
	for i, r := range rs {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Plane != rs[0].Plane || !r.Plane.Equal(p) {
			t.Fatalf("load %d: plane is not the batch's one copy of the body", i)
		}
	}
	if got := []int64{rs[0].Stats.IL1Accesses, rs[1].Stats.IL1Accesses, rs[2].Stats.IL1Accesses}; got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("statistics %v, want each hierarchy's own [3 1 2]", got)
	}
	if runtime.GOOS == "linux" && s.MappedBodyCount() != 1 {
		t.Fatalf("batch mapped %d bodies, want 1", s.MappedBodyCount())
	}
	// A single load follows the alias too.
	plane, st, err := s.LoadMemPlane("wkey", h1)
	if err != nil || !plane.Equal(p) || st.IL1Accesses != 2 {
		t.Fatalf("LoadMemPlane of an alias: err %v, stats %+v", err, st)
	}
}

// TestAliasRobustness forges every alias a load must refuse — a
// missing holder, a corrupt holder, a holder of another workload or of
// another kind, an alias naming another alias, a length mismatch — and
// checks that each load reports ErrNotFound or ErrInvalid, on a bare
// store and under a faultfs layer.
func TestAliasRobustness(t *testing.T) {
	h0, h1, h2 := hierN(t, 128), hierN(t, 256), hierN(t, 512)
	p := planeOf(2*trace.ChunkLen+5, 5)
	n := p.Len()
	for _, tc := range []struct {
		name  string
		want  error
		forge func(t *testing.T, s *artifact.Store)
	}{
		{"missing-holder", artifact.ErrNotFound, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlaneAlias("wkey", h1, h2, n, cache.Stats{}))
		}},
		{"corrupt-holder", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlaneAlias("wkey", h1, h0, n, cache.Stats{}))
			path := filepath.Join(s.Dir(), artifact.KeyOf(artifact.MemPlaneIdentity("wkey", h0))+artifact.Ext)
			data, err := os.ReadFile(path)
			check(t, err)
			data[len(data)/2] ^= 1
			check(t, os.WriteFile(path, data, 0o644))
		}},
		{"other-workload", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlane("other", h0, p, cache.Stats{}))
			check(t, s.SaveAliasRecord("wkey", h1, artifact.MemPlaneIdentity("other", h0), n, cache.Stats{}))
		}},
		{"other-kind", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveBranchPlane("wkey", "gshare", &trace.BitPlane{}))
			check(t, s.SaveAliasRecord("wkey", h1, artifact.BranchPlaneIdentity("wkey", "gshare"), n, cache.Stats{}))
		}},
		{"alias-to-alias", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlaneAlias("wkey", h2, h0, n, cache.Stats{}))
			check(t, s.SaveMemPlaneAlias("wkey", h1, h2, n, cache.Stats{}))
		}},
		{"self-alias", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlaneAlias("wkey", h1, h1, n, cache.Stats{}))
		}},
		{"length-mismatch", artifact.ErrInvalid, func(t *testing.T, s *artifact.Store) {
			check(t, s.SaveMemPlaneAlias("wkey", h1, h0, n-1, cache.Stats{}))
		}},
	} {
		for _, layered := range []bool{false, true} {
			name := tc.name
			if layered {
				name += "/faultfs"
			}
			t.Run(name, func(t *testing.T) {
				s, err := artifact.Open(t.TempDir())
				check(t, err)
				var tier faultfs.Tier
				if layered {
					s.Use(tier.Layer)
				}
				check(t, s.SaveMemPlane("wkey", h0, p, cache.Stats{}))
				tc.forge(t, s)
				for _, hs := range [][]cache.HierarchyConfig{{h1}, {h0, h1}, {h1, h0}} {
					rs := s.LoadMemPlanes("wkey", hs)
					for i, h := range hs {
						if h != h1 {
							continue
						}
						if !errors.Is(rs[i].Err, tc.want) || rs[i].Plane != nil {
							t.Fatalf("batch of %d: alias load returned plane %v, error %v; want %v", len(hs), rs[i].Plane != nil, rs[i].Err, tc.want)
						}
					}
				}
				if layered && tier.Ops() == 0 {
					t.Fatal("the faultfs layer saw no operation")
				}
			})
		}
	}
}

// TestAliasLoadThroughFaults pins the layer contract of an alias load:
// the alias record and its holder are separate operations, and a fault
// injected into either fails the hierarchy's load with that fault.
func TestAliasLoadThroughFaults(t *testing.T) {
	s, err := artifact.Open(t.TempDir())
	check(t, err)
	var tier faultfs.Tier
	s.Use(tier.Layer)
	h0, h1 := hierN(t, 128), hierN(t, 256)
	p := planeOf(trace.ChunkLen+1, 7)
	check(t, s.SaveMemPlane("wkey", h0, p, cache.Stats{}))
	check(t, s.SaveMemPlaneAlias("wkey", h1, h0, p.Len(), cache.Stats{}))
	ops := tier.Ops()
	if _, _, err := s.LoadMemPlane("wkey", h1); err != nil {
		t.Fatal(err)
	}
	if d := tier.Ops() - ops; d != 2 {
		t.Fatalf("an alias load ran %d layered operations, want 2 (record, holder)", d)
	}
	fault := errors.New("injected")
	tier.SetPlan(faultfs.Plan{Err: fault, Ops: artifact.OpLoad, Remaining: 1})
	if _, _, err := s.LoadMemPlane("wkey", h1); !errors.Is(err, fault) {
		t.Fatalf("faulted alias record load returned %v, want the injected fault", err)
	}
}

// TestSaveAllocBudget pins the streamed save: writing a mem plane and a
// branch plane of several megabytes allocates a bounded buffer, never
// an image of the file.
func TestSaveAllocBudget(t *testing.T) {
	s, err := artifact.Open(t.TempDir())
	check(t, err)
	const n = 6 << 20
	p := planeOf(n, 1)
	bb := trace.NewBitPlaneBuilder()
	for i := 0; i < n; i++ {
		bb.Append(i%3 == 0)
	}
	for _, tc := range []struct {
		name string
		save func() error
	}{
		{"SaveMemPlane", func() error { return s.SaveMemPlane("wkey", hierN(t, 128), p, cache.Stats{}) }},
		{"SaveBranchPlane", func() error { return s.SaveBranchPlane("wkey", "gshare", bb.Plane()) }},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		check(t, tc.save())
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
			t.Errorf("%s of a %d-instruction plane allocated %d bytes, want under 256 KiB", tc.name, n, got)
		}
	}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
