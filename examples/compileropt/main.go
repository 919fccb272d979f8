// Compileropt reproduces the Figure 8 case study for one benchmark:
// how instruction scheduling and loop unrolling change in-order
// performance, explained through the model's cycle stacks.
//
//	go run ./examples/compileropt -bench gsm_c
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/compiler"
	"repro/internal/harness"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	bench := flag.String("bench", "gsm_c", "benchmark to study")
	flag.Parse()

	spec, err := workloads.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	cfg := uarch.Default()

	fmt.Printf("%s under compiler optimizations (default core, cycles from the model)\n\n", *bench)
	fmt.Printf("%-8s %9s %12s %10s %10s %10s\n", "level", "N", "cycles", "deps", "taken", "base")
	var o3 float64
	for _, lvl := range compiler.Levels() {
		opt := compiler.Optimize(spec.Build(), lvl)
		pw, err := harness.ProfileProgram(opt)
		if err != nil {
			log.Fatal(err)
		}
		st, err := pw.PredictCtx(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		if lvl == compiler.O3 {
			o3 = st.Total()
		}
		fmt.Printf("%-8s %9d %12.0f %10.0f %10.0f %10.0f\n",
			lvl, pw.Prof.N, st.Total(),
			st.Cycles[10]+st.Cycles[11]+st.Cycles[12], st.Cycles[9], st.Cycles[0])
	}
	_ = o3
	fmt.Println("\nScheduling stretches dependency distances (deps shrink at equal N);")
	fmt.Println("unrolling removes branches and induction updates (N and taken shrink).")
}
