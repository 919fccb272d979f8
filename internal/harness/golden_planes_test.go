package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// goldenPlanesFile pins the annotation planes of every Table 2
// component for every program of goldenCorpus: each hierarchy's
// memory-event plane and its MemPlane.Stats, and each predictor's
// mispredict plane. It was generated by an earlier cache engine that
// consumed one reconstructed per-instruction record at a time and
// appended plane bytes one at a time, before that engine was replaced
// by the chunk walk, so it is an oracle
// independent of the current annotation code. It must not be
// re-pinned by a change that claims bit-identical planes.
const goldenPlanesFile = "testdata/golden_planes.json"

// goldenPlaneEntry is one program's plane digests.
type goldenPlaneEntry struct {
	Name   string              `json:"name"`
	Mem    []goldenMemPlane    `json:"mem"`
	Branch []goldenBranchPlane `json:"branch"`
}

// goldenMemPlane digests one hierarchy's plane and statistics; the
// hierarchy is named by its L2 geometry (the Table 2 fronts coincide).
type goldenMemPlane struct {
	L2    string `json:"l2"`
	Plane string `json:"plane_sha256"` // SHA-256 of the plane's live bytes
	Stats string `json:"stats_sha256"` // SHA-256 of MemPlane.Stats (statsDigest)
}

// goldenBranchPlane digests one predictor's plane.
type goldenBranchPlane struct {
	Predictor string `json:"predictor"`
	Plane     string `json:"plane_sha256"` // SHA-256 of the plane's live words
}

// table2Configs returns the Table 2 design points over the default
// machine, in the exploration's enumeration order.
func table2Configs(t *testing.T) []uarch.Config {
	t.Helper()
	cfgs, err := uarch.Table2Domain().Enumerate(uarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// bytePlaneDigest hashes the length and the live bytes of p.
func bytePlaneDigest(p *trace.BytePlane) string {
	h := sha256.New()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(p.Len())))
	for i, c := range p.Chunks() {
		h.Write(c[:min(p.Len()-int64(i)*trace.ChunkLen, trace.ChunkLen)])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bitPlaneDigest hashes the length and the live words of p.
func bitPlaneDigest(p *trace.BitPlane) string {
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(p.Len()))
	for i, ws := range p.Chunks() {
		live := min(p.Len()-int64(i)*trace.ChunkLen, trace.ChunkLen)
		for _, w := range ws[:(live+63)/64] {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// statsDigest hashes every field of s in declaration order.
func statsDigest(s cache.Stats) string {
	var buf []byte
	for _, v := range []int64{
		s.IL1Accesses, s.IL1Misses, s.IL2Misses,
		s.DL1Accesses, s.DL1Misses, s.DL2Misses, s.DL1LoadMisses, s.DL2LoadMisses,
		s.ITLBMisses, s.DTLBMisses, s.Writebacks,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// goldenPlanes profiles c, annotates every Table 2 component through
// EnsureAnnotatedCtx and digests the planes, hierarchies and
// predictors each in first-appearance order.
func goldenPlanes(t *testing.T, c goldenCase, cfgs []uarch.Config) goldenPlaneEntry {
	t.Helper()
	pw, err := c.profile(c.build())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	ctx := context.Background()
	if err := pw.EnsureAnnotatedCtx(ctx, cfgs, 2); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out := goldenPlaneEntry{Name: c.name}
	var hiers []cache.HierarchyConfig
	var preds []uarch.PredictorKind
	for _, cfg := range cfgs {
		newH, newP := !slices.Contains(hiers, cfg.Hier), !slices.Contains(preds, cfg.Predictor)
		if !newH && !newP {
			continue
		}
		ann, err := pw.AnnotationCtx(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if newH {
			hiers = append(hiers, cfg.Hier)
			out.Mem = append(out.Mem, goldenMemPlane{
				L2:    fmt.Sprintf("%dKB/%dw", cfg.Hier.L2.SizeBytes/1024, cfg.Hier.L2.Ways),
				Plane: bytePlaneDigest(ann.Mem),
				Stats: statsDigest(ann.MemStats),
			})
		}
		if newP {
			preds = append(preds, cfg.Predictor)
			out.Branch = append(out.Branch, goldenBranchPlane{
				Predictor: uarch.PredictorName(cfg.Predictor),
				Plane:     bitPlaneDigest(ann.Br),
			})
		}
	}
	return out
}

// TestGoldenPlanes annotates the golden corpus over Table 2 and checks
// every plane and every hierarchy's statistics against the committed
// digests.
func TestGoldenPlanes(t *testing.T) {
	raw, err := os.ReadFile(goldenPlanesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenPlaneEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%s has %d entries, corpus has %d programs", goldenPlanesFile, len(want), len(corpus))
	}
	cfgs := table2Configs(t)
	for i, c := range corpus {
		got := goldenPlanes(t, c, cfgs)
		if !slices.Equal(got.Mem, want[i].Mem) || !slices.Equal(got.Branch, want[i].Branch) || got.Name != want[i].Name {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, want[i])
		}
	}
}
