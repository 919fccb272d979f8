// Customworkload shows how a downstream user brings their own program
// to the model: write a kernel in the program-builder DSL, profile it,
// and explore design points — no simulator runs needed after the one
// profiling pass.
//
// The kernel is a fixed-point dot product with a strided second vector,
// small enough to read in one sitting.
//
//	go run ./examples/customworkload
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// buildDotProduct constructs: sum = Σ a[i]*b[4i] over n elements.
func buildDotProduct(n int64) *program.Program {
	const (
		aBase = 0x100
		bBase = 0x4000
	)
	p := program.New("dotprod", bBase+4*n+64)
	// Synthetic input data.
	for i := int64(0); i < n; i++ {
		p.SetData(aBase+i, (i*37)%256-128)
		p.SetData(bBase+4*i, (i*91)%256-128)
	}

	i, acc := workloads.R(1), workloads.R(2)
	av, bv, t := workloads.R(3), workloads.R(4), workloads.R(5)
	nn, bptr := workloads.R(6), workloads.R(7)

	b := p.Block("init")
	b.Li(i, 0)
	b.Li(acc, 0)
	b.Li(nn, n)
	b.Li(bptr, bBase)

	// The loop is annotated with its trip-count multiple so the
	// unroller in internal/compiler could unroll it, too.
	b = p.LoopBlockN("dot", "dot", 4)
	b.Ld(av, i, aBase)
	b.Ld(bv, bptr, 0)
	b.Mul(t, av, bv)
	b.Add(acc, acc, t)
	b.Addi(bptr, bptr, 4)
	b.Addi(i, i, 1)
	b.Blt(i, nn, "dot")

	b = p.Block("done")
	b.St(acc, workloads.R(0), 0)
	b.Halt()
	return p
}

func main() {
	log.SetFlags(0)
	pw, err := harness.ProfileProgram(buildDotProduct(40000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profile:", pw.Prof)
	fmt.Println()

	// Sweep a couple of interesting axes with the model.
	for _, w := range []int{1, 2, 4} {
		for _, df := range uarch.DepthFreqPoints() {
			cfg := uarch.Default().WithWidth(w).WithDepth(df)
			st, err := pw.PredictCtx(context.Background(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			secs := cfg.Seconds(st.Total())
			fmt.Printf("W=%d %d-stage @%4d MHz: CPI %.3f, runtime %.3f ms\n",
				w, cfg.PipelineStages(), cfg.FreqMHz, st.CPI(), 1e3*secs)
		}
	}
	fmt.Println("\nA validation run is one call away: pipeline.Simulate(pw.Trace, cfg).")
}
