package harness

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/uarch"
)

// goldenModelFile pins the model's outputs for every program of
// goldenCorpus over the Table 2 space followed by the extended domain:
// per design point the bits of its CPI, seconds, EDP and every
// CPI-stack component. It was generated before the statistics path
// moved into the per-workload memo, and a change to how the floats are
// computed (operation order, fused multiply-add, a new statistics
// engine) moves it. Regenerate it with -update-golden-model only for a
// change that means to move the model's numbers.
const goldenModelFile = "testdata/golden_model.json"

var updateGoldenModel = flag.Bool("update-golden-model", false, "rewrite "+goldenModelFile)

// goldenModelEntry is one program's model digest.
type goldenModelEntry struct {
	Name   string `json:"name"`
	Points int    `json:"points"`
	Model  string `json:"model_sha256"`
}

// goldenModelConfigs is the Table 2 space followed by the extended
// domain, both from the default design point.
func goldenModelConfigs(t *testing.T) []uarch.Config {
	t.Helper()
	var cfgs []uarch.Config
	for _, d := range []*uarch.Domain{uarch.Table2Domain(), uarch.ExtendedDomain()} {
		pts, err := d.Enumerate(uarch.Default())
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, pts...)
	}
	return cfgs
}

// modelDigest evaluates the model and the power model at every point
// of cfgs from one MultiInputsCtx and hashes the bits of each point's
// outputs in order.
func modelDigest(t *testing.T, pw *Profiled, cfgs []uarch.Config) string {
	t.Helper()
	set, err := pw.MultiInputsCtx(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	pm := power.NewModel()
	h := sha256.New()
	var buf []byte
	for _, cfg := range cfgs {
		in, err := set.Inputs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.Predict(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := pm.Objectives(power.EventsFrom(in.Prof, in.Mem, in.Branch), cfg, st.Total())
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		for _, v := range []float64{st.CPI(), obj.DelaySec, obj.EDP} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for c := core.Component(0); c < core.NumComponents; c++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.CPIOf(c)))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenModel recomputes the model digest of every program of the
// golden corpus and checks it against the committed file.
func TestGoldenModel(t *testing.T) {
	cfgs := goldenModelConfigs(t)
	var got []goldenModelEntry
	for _, c := range goldenCorpus() {
		pw, err := c.profile(c.build())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, goldenModelEntry{Name: c.name, Points: len(cfgs), Model: modelDigest(t, pw, cfgs)})
	}
	if *updateGoldenModel {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModelFile, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenModelFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenModelEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d entries, corpus has %d programs", goldenModelFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n got  %+v\n want %+v", got[i].Name, got[i], want[i])
		}
	}
}
