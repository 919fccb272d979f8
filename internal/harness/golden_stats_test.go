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

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/uarch"
)

// goldenStatsFile pins the model inputs of the extended domain for
// every program of goldenCorpus: each distinct hierarchy's cache.Stats
// and each predictor's branch.Stats as MultiInputsCtx collects them.
// It was generated by the statistics path that ran one unbounded
// stack-distance engine per L1/TLB front, before the fronts were
// merged into one walk over bounded stacks, so it is an oracle
// independent of the current engine. It must not be re-pinned by a
// change that claims identical statistics.
const goldenStatsFile = "testdata/golden_stats.json"

// goldenStatsEntry is one program's statistics digests.
type goldenStatsEntry struct {
	Name   string              `json:"name"`
	Mem    []goldenHierStats   `json:"mem"`
	Branch []goldenBranchStats `json:"branch"`
}

// goldenHierStats digests one hierarchy's statistics; the hierarchy is
// named by its L1 and L2 geometries (TLBs and blocks are fixed).
type goldenHierStats struct {
	Hier  string `json:"hier"`
	Stats string `json:"stats_sha256"` // statsDigest
}

// goldenBranchStats digests one predictor's statistics.
type goldenBranchStats struct {
	Predictor string `json:"predictor"`
	Stats     string `json:"stats_sha256"` // branchStatsDigest
}

// branchStatsDigest hashes every field of s in declaration order.
func branchStatsDigest(s branch.Stats) string {
	var buf []byte
	for _, v := range []int64{s.Branches, s.Mispredicts, s.PredictedTaken, s.Jumps} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// hierName names a hierarchy of the extended domain by its L1 and L2
// geometries.
func hierName(h cache.HierarchyConfig) string {
	return fmt.Sprintf("l1i_%dk_%dw/l1d_%dk_%dw/l2_%dk_%dw",
		h.IL1.SizeBytes/1024, h.IL1.Ways, h.DL1.SizeBytes/1024, h.DL1.Ways,
		h.L2.SizeBytes/1024, h.L2.Ways)
}

// goldenStats profiles c, collects the statistics of every cfgs point
// in one MultiInputsCtx and digests the hierarchies and predictors each
// in first-appearance order.
func goldenStats(t *testing.T, c goldenCase, cfgs []uarch.Config) goldenStatsEntry {
	t.Helper()
	pw, err := c.profile(c.build())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	set, err := pw.MultiInputsCtx(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	out := goldenStatsEntry{Name: c.name}
	var hiers []cache.HierarchyConfig
	var preds []uarch.PredictorKind
	for _, cfg := range cfgs {
		newH, newP := !slices.Contains(hiers, cfg.Hier), !slices.Contains(preds, cfg.Predictor)
		if !newH && !newP {
			continue
		}
		in, err := set.Inputs(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if newH {
			hiers = append(hiers, cfg.Hier)
			out.Mem = append(out.Mem, goldenHierStats{Hier: hierName(cfg.Hier), Stats: statsDigest(in.Mem)})
		}
		if newP {
			preds = append(preds, cfg.Predictor)
			out.Branch = append(out.Branch, goldenBranchStats{
				Predictor: uarch.PredictorName(cfg.Predictor),
				Stats:     branchStatsDigest(in.Branch),
			})
		}
	}
	return out
}

// TestGoldenExtendedStats collects the extended domain's statistics
// for the golden corpus and checks every hierarchy's and predictor's
// digest against the committed file.
func TestGoldenExtendedStats(t *testing.T) {
	raw, err := os.ReadFile(goldenStatsFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenStatsEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%s has %d entries, corpus has %d programs", goldenStatsFile, len(want), len(corpus))
	}
	cfgs, err := uarch.ExtendedDomain().Enumerate(uarch.Default())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corpus {
		got := goldenStats(t, c, cfgs)
		if !slices.Equal(got.Mem, want[i].Mem) || !slices.Equal(got.Branch, want[i].Branch) || got.Name != want[i].Name {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, want[i])
		}
	}
}
