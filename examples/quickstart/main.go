// Quickstart: profile a benchmark once, then predict its performance
// on the paper's default superscalar in-order processor — and check
// the prediction against the detailed cycle-accurate simulator.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)

	// 1. Pick a workload and profile it. Profiling runs the program
	//    once on the functional simulator and collects the
	//    machine-independent statistics of the paper's Table 1.
	spec, err := workloads.ByName("sha")
	if err != nil {
		log.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("profile:", pw.Prof)

	// 2. Choose a design point (Table 2 default: 4-wide, 9 stages at
	//    1 GHz, 512 KB L2, 1 KB gshare) and evaluate the model.
	cfg := uarch.Default()
	stack, err := pw.PredictCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmechanistic model on %s:\n", cfg)
	fmt.Printf("  predicted CPI %.4f (T = %.0f cycles)\n", stack.CPI(), stack.Total())
	for c := core.Component(0); c < core.NumComponents; c++ {
		if stack.Cycles[c] > 0 {
			fmt.Printf("  %-12s %7.4f CPI\n", c, stack.CPIOf(c))
		}
	}

	// 3. Validate against detailed cycle-accurate simulation — the
	//    expensive path the model replaces.
	sim, err := pipeline.Simulate(pw.Trace, cfg)
	if err != nil {
		log.Fatal(err)
	}
	errPct := 100 * (stack.CPI() - sim.CPI()) / sim.CPI()
	fmt.Printf("\ndetailed simulation: CPI %.4f  -> model error %+.2f%%\n", sim.CPI(), errPct)
}
