package harness

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func TestAblationTakenFragmentation(t *testing.T) {
	cfg := uarch.Default()
	var sum0, sum1 float64
	for _, spec := range workloads.MiBench() {
		pw := MustProfileProgram(spec.Build())
		v0, err := pw.Validate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in, err := pw.InputsCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.PredictOpts(in, cfg, core.Options{TakenFragmentation: true})
		if err != nil {
			t.Fatal(err)
		}
		// The ablated stack against the same detailed reference.
		v1 := v0
		v1.Model, v1.ModelCPI = st, st.CPI()
		t.Logf("%-14s paper=%.2f%% corrected=%.2f%%", spec.Name, 100*v0.AbsErr(), 100*v1.AbsErr())
		sum0 += v0.AbsErr()
		sum1 += v1.AbsErr()
	}
	t.Logf("avg: paper-model=%.2f%% corrected=%.2f%%", 100*sum0/19, 100*sum1/19)
}
