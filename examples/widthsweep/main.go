// Widthsweep reproduces the Figure 4 analysis for any benchmark: CPI
// stacks as a function of superscalar width, showing where the width
// benefit goes (and why it saturates — growing dependency stalls).
//
//	go run ./examples/widthsweep -bench dijkstra
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	bench := flag.String("bench", "dijkstra", "benchmark to sweep")
	flag.Parse()

	spec, err := workloads.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: CPI stacks vs width (model) with detailed CPI for reference\n\n", *bench)
	fmt.Printf("%2s %8s %8s %8s %8s %8s %8s %8s | %8s %8s\n",
		"W", "base", "mul/div", "l2acc", "l2miss", "bpred", "taken", "deps", "CPI", "detail")
	for w := 1; w <= 4; w++ {
		cfg := uarch.Default().WithWidth(w)
		st, err := pw.PredictCtx(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		sim, err := pipeline.Simulate(pw.Trace, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%2d %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f %8.4f | %8.4f %8.4f\n",
			w, st.CPIOf(0), st.CPIOf(1), st.L2Access(), st.L2Miss(),
			st.CPIOf(8), st.CPIOf(9), st.Deps(), st.CPI(), sim.CPI())
	}
	fmt.Println("\nIf deps grow as base shrinks, extra width is being wasted on stalls —")
	fmt.Println("the paper's dijkstra observation.")
}
