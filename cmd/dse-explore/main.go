// Command dse-explore runs the paper's Table 2 design-space
// exploration for one or more benchmarks: the mechanistic model
// evaluates all 192 design points from a single profiling run, and
// -validate additionally runs the detailed cycle-accurate simulator at
// every point through the annotation-plane fast path (the trace is
// annotated once per distinct cache hierarchy and branch predictor;
// each point is then a timing-only replay).
//
// -space selects a typed parameter domain (table2 or the 3072-point
// extended space), and -search switches from the exhaustive sweep to
// the deterministic Pareto-aware heuristic search (-budget evaluations
// from -seed), rendering the delay/EDP frontier.
//
// Usage:
//
//	dse-explore -bench gsm_c
//	dse-explore -bench gsm_c,lame -validate -workers 4
//	dse-explore -bench sha -validate -top 10
//	dse-explore -bench dijkstra -validate -cpuprofile cpu.pprof
//	dse-explore -bench gsm_c -validate -artifact-dir ~/.cache/repro-artifacts
//	dse-explore -bench crc32 -space extended -search -budget 768 -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/artifact"
	"repro/internal/dse"
	"repro/internal/harness"
	"repro/internal/par"
	"repro/internal/power"
	"repro/internal/proftool"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dse-explore: ")
	var (
		bench    = flag.String("bench", "gsm_c", "benchmark name, or comma-separated list")
		validate = flag.Bool("validate", false, "run the detailed simulator at every design point (annotation-plane fast path)")
		top      = flag.Int("top", 5, "print the N best design points by EDP")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		artDir   = flag.String("artifact-dir", "", "persistent artifact store directory: profiling and annotation results are reused across runs, bit-identically (empty = disabled)")
		space    = flag.String("space", "table2", "design space to explore: table2 or extended")
		search   = flag.Bool("search", false, "heuristic Pareto search over the space instead of the exhaustive sweep")
		budget   = flag.Int("budget", 0, "search evaluation budget (0 = default, always clamped to the space cardinality)")
		seed     = flag.Int64("seed", 0, "search random seed; equal seeds reproduce the run exactly")
	)
	flag.Parse()
	par.SetDefault(*workers)
	stopProf, err := proftool.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	var store *artifact.Store
	if *artDir != "" {
		if store, err = artifact.Open(*artDir); err != nil {
			log.Fatal(err)
		}
	}

	domain, err := uarch.DomainByName(*space)
	if err != nil {
		log.Fatal(err)
	}
	var cfgs []uarch.Config
	if !*search {
		if cfgs, err = dse.SpaceFrom(domain, uarch.Default()); err != nil {
			log.Fatal(err)
		}
	}
	pm := power.NewModel()
	for _, name := range strings.Split(*bench, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("==== %s: %s space, %d design points ====\n", name, domain.Name, domain.Cardinality())
		t0 := time.Now()
		pw, fromDisk, err := harness.ProfileProgramCached(store, spec.Name, 0, spec.Build)
		if err != nil {
			log.Fatal(err)
		}
		verb := "profiled"
		if fromDisk {
			verb = "rehydrated"
		}
		fmt.Printf("%s %d instructions in %v\n", verb, pw.Trace.Len(), time.Since(t0).Round(time.Millisecond))

		t1 := time.Now()
		if *search {
			res, err := dse.Search(context.Background(), pw, domain, uarch.Default(), pm, dse.SearchOptions{
				Budget:   *budget,
				Seed:     *seed,
				Validate: *validate,
				Workers:  *workers,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("searched in %v (%s)\n", time.Since(t1).Round(time.Millisecond), mode(*validate))
			fmt.Printf("search summary: evaluated=%d generations=%d stats_replays=%d front=%d cardinality=%d\n",
				res.Evaluated, res.Generations, res.Replays, len(res.Front), domain.Cardinality())
			renderFront(os.Stdout, res.Front, *validate)
			continue
		}
		var pts []dse.Point
		if *validate {
			pts, err = dse.ExploreValidatedCtx(context.Background(), pw, cfgs, pm, *workers)
		} else {
			pts, err = dse.ExploreCtx(context.Background(), pw, cfgs, pm)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("explored in %v (%s)\n", time.Since(t1).Round(time.Millisecond), mode(*validate))
		render(os.Stdout, pts, *top, *validate)
	}
	_ = os.Stdout.Sync()
}

func mode(validated bool) string {
	if validated {
		return "model + detailed simulation"
	}
	return "model only"
}

// render prints the best-EDP design points and, when validated, the
// model-versus-simulation accuracy over the space. An empty point
// slice and out-of-range top values are reported, not panics.
func render(w io.Writer, pts []dse.Point, top int, validated bool) {
	if len(pts) == 0 {
		fmt.Fprintln(w, "no design points to report (empty design space)")
		return
	}
	mBest, sBest := dse.BestEDP(pts)
	if mBest >= 0 {
		fmt.Fprintf(w, "model best-EDP point:    %s\n", pts[mBest].Cfg.Name)
	}
	if sBest >= 0 {
		fmt.Fprintf(w, "detailed best-EDP point: %s (same=%v)\n", pts[sBest].Cfg.Name, mBest == sBest)
	}

	ordered := append([]dse.Point(nil), pts...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ModelEDP < ordered[j].ModelEDP })
	if top < 0 {
		top = 0
	}
	if top > len(ordered) {
		top = len(ordered)
	}
	fmt.Fprintf(w, "%-36s %10s %12s", "top points by model EDP", "modelCPI", "modelEDP")
	if validated {
		fmt.Fprintf(w, " %10s %12s %8s", "simCPI", "simEDP", "err")
	}
	fmt.Fprintln(w)
	for _, p := range ordered[:top] {
		fmt.Fprintf(w, "%-36s %10.4f %12.4e", p.Cfg.Name, p.ModelCPI, p.ModelEDP)
		if validated {
			fmt.Fprintf(w, " %10.4f %12.4e %7.2f%%", p.SimCPI, p.SimEDP, 100*p.CPIErr)
		}
		fmt.Fprintln(w)
	}
	if validated {
		var sum, max float64
		for _, p := range pts {
			sum += p.CPIErr
			if p.CPIErr > max {
				max = p.CPIErr
			}
		}
		fmt.Fprintf(w, "model accuracy over the space: avg err %.2f%%, max %.2f%%\n",
			100*sum/float64(len(pts)), 100*max)
	}
	fmt.Fprintln(w)
}

// renderFront prints the delay/EDP Pareto frontier recovered by the
// heuristic search, in domain enumeration order (fastest first).
func renderFront(w io.Writer, front []dse.Point, validated bool) {
	if len(front) == 0 {
		fmt.Fprintln(w, "no frontier to report (nothing evaluated)")
		return
	}
	fmt.Fprintf(w, "%-44s %10s %12s %12s", "Pareto frontier (delay vs EDP)", "modelCPI", "seconds", "modelEDP")
	if validated {
		fmt.Fprintf(w, " %10s %12s", "simCPI", "simEDP")
	}
	fmt.Fprintln(w)
	for _, p := range front {
		secs, edp := p.ModelSecs, p.ModelEDP
		if p.Sim != nil {
			secs, edp = p.SimSecs, p.SimEDP
		}
		fmt.Fprintf(w, "%-44s %10.4f %12.4e %12.4e", p.Cfg.Name, p.ModelCPI, secs, edp)
		if validated {
			fmt.Fprintf(w, " %10.4f %12.4e", p.SimCPI, p.SimEDP)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
