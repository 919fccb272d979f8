package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/uarch"
)

// table2Geometries returns one design point per Table 2 L2 geometry:
// the eight hierarchies of the space, all behind one L1/TLB front.
func table2Geometries(t *testing.T) []uarch.Config {
	t.Helper()
	var out []uarch.Config
	for _, kb := range uarch.Table2L2SizesKB() {
		for _, ways := range uarch.Table2L2Ways() {
			cfg, err := uarch.Table2Config(uarch.Default(), 2, 7, kb, ways, "gshare")
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, cfg)
		}
	}
	return out
}

// hiersOf returns the hierarchies of cfgs, in order.
func hiersOf(cfgs []uarch.Config) []cache.HierarchyConfig {
	var out []cache.HierarchyConfig
	for _, cfg := range cfgs {
		out = append(out, cfg.Hier)
	}
	return out
}

// TestAnnotPlaneAllocBudget pins the plane memory of one annotation
// walk over Table 2's eight L2 geometries on sha, whose planes are all
// equal: the walk keeps one chunk array per distinct chunk, so the
// planes' share of its allocation stays at about one byte per
// instruction, not one per geometry. The planes' share is the walk's
// allocation less that of the same walk without recording.
func TestAnnotPlaneAllocBudget(t *testing.T) {
	pw, _, err := ProfileProgramCached(nil, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	hiers := hiersOf(table2Geometries(t))
	walk := func(record bool) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		eng, err := cache.NewL2SpaceSim(hiers)
		if err != nil {
			t.Fatal(err)
		}
		if record {
			if err := eng.RecordPlanes(hiers); err != nil {
				t.Fatal(err)
			}
		}
		if err := pw.Trace.EachChunk(context.Background(), eng.ConsumeChunk); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(eng)
		return after.TotalAlloc - before.TotalAlloc
	}
	planes := float64(walk(true)) - float64(walk(false))
	perInst := planes / float64(pw.Trace.Len())
	t.Logf("sha: %d instructions, %d geometries, plane allocation %.0f bytes (%.2f B/inst)", pw.Trace.Len(), len(hiers), planes, perInst)
	if perInst > 1.5 {
		t.Fatalf("annotating %d geometries allocated %.2f B/inst of plane memory, want at most 1.5", len(hiers), perInst)
	}
}

// memFiles returns the paths of the store's mem-plane files, largest
// first: the bodies, then the alias records.
func memFiles(t *testing.T, store *artifact.Store) []artifact.Info {
	t.Helper()
	list, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []artifact.Info
	for _, in := range list {
		if in.Kind == artifact.KindMemPlane.String() {
			out = append(out, in)
		}
	}
	slices.SortStableFunc(out, func(a, b artifact.Info) int { return int(b.SizeBytes - a.SizeBytes) })
	return out
}

// TestAliasStoreWarmLoad pins the alias layout end to end on sha,
// whose eight Table 2 geometries have one distinct plane: the cold
// pass writes one mem-plane body and seven alias records, and a warm
// pass maps that one body, hands all eight hierarchies the same plane
// object (so canonicalization compares no bytes) and charges it once.
func TestAliasStoreWarmLoad(t *testing.T) {
	store := openTestStore(t)
	cfgs := table2Geometries(t)
	ctx := context.Background()
	cold, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil {
		t.Fatal(err)
	}
	coldAnns, err := cold.ensureAnnotated(ctx, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	files := memFiles(t, store)
	if len(files) != len(cfgs) {
		t.Fatalf("store holds %d mem-plane files, want %d", len(files), len(cfgs))
	}
	if body, alias := files[0].SizeBytes, files[1].SizeBytes; body < cold.Trace.Len() || alias > 4096 {
		t.Fatalf("largest mem-plane files are %d and %d bytes: want one body of at least %d bytes, then alias records", body, alias, cold.Trace.Len())
	}

	warm, fromDisk, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
	if err != nil || !fromDisk {
		t.Fatalf("warm workload: fromDisk=%v err=%v", fromDisk, err)
	}
	bodies := store.MappedBodyCount()
	anns, err := warm.ensureAnnotated(ctx, cfgs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := store.MappedBodyCount() - bodies; runtime.GOOS == "linux" && d != 1 {
		t.Fatalf("warm load mapped %d mem-plane bodies, want 1", d)
	}
	if c := warm.Counters(); c.CacheAnnotations != 0 {
		t.Fatalf("warm load annotated %d hierarchies, want 0", c.CacheAnnotations)
	}
	for i, a := range anns {
		if a.Mem != anns[0].Mem {
			t.Fatalf("%s: warm plane is a different object from %s's", cfgs[i].Hier.L2, cfgs[0].Hier.L2)
		}
		if !a.Mem.Equal(coldAnns[i].Mem) || a.MemStats != coldAnns[i].MemStats {
			t.Fatalf("%s: warm plane or stats differ from the cold pass", cfgs[i].Hier.L2)
		}
	}
	warm.annot.mu.Lock()
	refs := len(warm.annot.planeRefs)
	warm.annot.mu.Unlock()
	if want := 1 + 1; refs != want { // the mem plane and the gshare plane
		t.Fatalf("warm memo charges %d plane objects, want %d", refs, want)
	}
}

// TestAliasRecompute damages the alias layout of a sha store in each
// way a load must refuse, and checks that every affected hierarchy is
// recomputed to the same plane and statistics. Holders of another
// workload or kind are covered by the artifact package's
// TestAliasRobustness, which can forge those records.
func TestAliasRecompute(t *testing.T) {
	cfgs := table2Geometries(t)
	hiers := hiersOf(cfgs)
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		failing int // hierarchies whose loads the damage fails
		damage  func(t *testing.T, store *artifact.Store, key string, n int64, body string)
	}{
		{"missing-holder", 8, func(t *testing.T, _ *artifact.Store, _ string, _ int64, body string) {
			if err := os.Remove(body); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-holder", 8, func(t *testing.T, _ *artifact.Store, _ string, _ int64, body string) {
			data, err := os.ReadFile(body)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(body, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"alias-to-alias", 6, func(t *testing.T, store *artifact.Store, key string, n int64, _ string) {
			// hiers[0] holds the body; make every other record name
			// hiers[1], itself an alias.
			for _, h := range hiers[2:] {
				if err := store.SaveMemPlaneAlias(key, h, hiers[1], n, cache.Stats{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"length-mismatch", 7, func(t *testing.T, store *artifact.Store, key string, n int64, _ string) {
			for _, h := range hiers[1:] {
				if err := store.SaveMemPlaneAlias(key, h, hiers[0], n+1, cache.Stats{}); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := openTestStore(t)
			cold, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.ensureAnnotated(ctx, cfgs, 2)
			if err != nil {
				t.Fatal(err)
			}
			body := filepath.Join(store.Dir(), memFiles(t, store)[0].Key+artifact.Ext)
			tc.damage(t, store, cold.ArtifactKey(), cold.Trace.Len(), body)

			loads := store.LoadMemPlanes(cold.ArtifactKey(), hiers)
			failed := 0
			for i, r := range loads {
				if r.Err == nil {
					continue
				}
				failed++
				if !errors.Is(r.Err, artifact.ErrNotFound) && !errors.Is(r.Err, artifact.ErrInvalid) {
					t.Fatalf("%s: load error %v is neither ErrNotFound nor ErrInvalid", hiers[i].L2, r.Err)
				}
			}
			if failed != tc.failing {
				t.Fatalf("%d of %d loads failed, want %d", failed, len(hiers), tc.failing)
			}

			warm, _, err := ProfileProgramCached(store, "sha", 0, mustSpec(t, "sha").Build)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.ensureAnnotated(ctx, cfgs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if c := warm.Counters(); c.CacheAnnotations != int64(failed) {
				t.Fatalf("recomputed %d hierarchies, want %d", c.CacheAnnotations, failed)
			}
			for i := range cfgs {
				if !got[i].Mem.Equal(want[i].Mem) || got[i].MemStats != want[i].MemStats {
					t.Fatalf("%s: recomputed plane or stats differ from the first pass", hiers[i].L2)
				}
			}
		})
	}
}
