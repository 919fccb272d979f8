// Designspace explores the paper's 192-point Table 2 design space for
// one benchmark using the mechanistic model only — the use case the
// model exists for: a whole design space in well under a second once
// the workload is profiled.
//
//	go run ./examples/designspace -bench patricia -top 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/power"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	bench := flag.String("bench", "patricia", "benchmark to explore")
	top := flag.Int("top", 10, "how many best-EDP configurations to print")
	flag.Parse()

	spec, err := workloads.ByName(*bench)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	pw, err := harness.ProfileProgram(spec.Build())
	if err != nil {
		log.Fatal(err)
	}
	profTime := time.Since(t0)

	space := dse.Space(uarch.Default())
	t1 := time.Now()
	pts, err := dse.ExploreCtx(context.Background(), pw, space, power.NewModel())
	if err != nil {
		log.Fatal(err)
	}
	exploreTime := time.Since(t1)

	sort.Slice(pts, func(i, j int) bool { return pts[i].ModelEDP < pts[j].ModelEDP })
	fmt.Printf("%s: %d design points explored in %v (profiling took %v, once)\n\n",
		*bench, len(pts), exploreTime.Round(time.Millisecond), profTime.Round(time.Millisecond))
	fmt.Printf("%-36s %8s %10s %12s\n", "configuration", "CPI", "time", "EDP (J*s)")
	for i := 0; i < *top && i < len(pts); i++ {
		p := pts[i]
		fmt.Printf("%-36s %8.4f %8.2fms %12.4e\n",
			p.Cfg.Name, p.ModelCPI, 1e3*p.ModelSecs, p.ModelEDP)
	}
}
