// Command inorder-model profiles one or more benchmarks and predicts
// their performance on a chosen superscalar in-order design point,
// printing the CPI stack (and, with -validate, the detailed-simulation
// reference). Multiple benchmarks run in parallel across -workers
// goroutines.
//
// Usage:
//
//	inorder-model -bench sha
//	inorder-model -bench dijkstra -width 2 -stages 5 -l2kb 256 -pred hybrid -validate
//	inorder-model -bench sha,dijkstra,gsm_c -validate -workers 4
//	inorder-model -bench sha -dyninsts 5000000
//	inorder-model -bench sha -validate -cpuprofile cpu.pprof
//	inorder-model -bench sha -artifact-dir ~/.cache/repro-artifacts
//	inorder-model -bench sha -search -space extended -budget 512 -seed 1
//	inorder-model -list
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

	"repro/internal/artifact"
	"repro/internal/core"
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
	log.SetPrefix("inorder-model: ")
	var (
		bench    = flag.String("bench", "sha", "benchmark name, or comma-separated list (see -list)")
		width    = flag.Int("width", 4, "pipeline width W (1..4)")
		stages   = flag.Int("stages", 9, "total pipeline stages (5, 7 or 9; sets frequency)")
		l2kb     = flag.Int("l2kb", 512, "L2 size in KB (128, 256, 512, 1024)")
		l2ways   = flag.Int("l2ways", 8, "L2 associativity (8 or 16)")
		predName = flag.String("pred", "gshare", "branch predictor: gshare or hybrid")
		dyninsts = flag.Int64("dyninsts", 0, "minimum dynamic instructions per benchmark: the workload is re-run until its recorded trace reaches this count (0 = one run)")
		validate = flag.Bool("validate", false, "also run the detailed cycle-accurate simulator")
		workers  = flag.Int("workers", 0, "worker goroutines for multi-benchmark runs (0 = GOMAXPROCS)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		artDir   = flag.String("artifact-dir", "", "persistent artifact store directory: profiling results are reused across runs, bit-identically (empty = disabled)")
		space    = flag.String("space", "table2", "design space for -search: table2 or extended")
		search   = flag.Bool("search", false, "run the Pareto-aware heuristic search over -space instead of predicting one design point")
		budget   = flag.Int("budget", 0, "search evaluation budget (0 = default, clamped to the space cardinality)")
		seed     = flag.Int64("seed", 0, "search random seed; equal seeds reproduce the run exactly")
	)
	flag.Parse()
	par.SetDefault(*workers)
	var store *artifact.Store
	if *artDir != "" {
		var err error
		if store, err = artifact.Open(*artDir); err != nil {
			log.Fatal(err)
		}
	}
	stopProf, err := proftool.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if *list {
		for _, s := range workloads.All() {
			fmt.Printf("%-16s %s\n", s.Name, s.Domain)
		}
		return
	}

	if *search {
		// Search mode: instead of one design point, the Pareto-aware
		// heuristic search over the chosen typed domain, sharing the
		// dse.Search engine (and its determinism guarantees) with
		// dse-explore and the modeld service.
		domain, err := uarch.DomainByName(*space)
		if err != nil {
			log.Fatal(err)
		}
		pm := power.NewModel()
		for _, spec := range resolveBenchList(*bench) {
			fmt.Printf("searching %s over the %s space (%d points) ...\n",
				spec.Name, domain.Name, domain.Cardinality())
			pw, _, err := harness.ProfileProgramCached(store, spec.Name, *dyninsts, spec.Build)
			if err != nil {
				log.Fatal(err)
			}
			res, err := dse.Search(context.Background(), pw, domain, uarch.Default(), pm, dse.SearchOptions{
				Budget:   *budget,
				Seed:     *seed,
				Validate: *validate,
				Workers:  *workers,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("search summary: evaluated=%d generations=%d stats_replays=%d front=%d cardinality=%d\n",
				res.Evaluated, res.Generations, res.Replays, len(res.Front), domain.Cardinality())
			renderFront(os.Stdout, res.Front)
		}
		_ = os.Stdout.Sync()
		return
	}

	// The whole design point is validated against the paper's Table 2
	// domain by the same validator the modeld service uses for request
	// decoding: out-of-domain widths, L2 geometries and predictors are
	// rejected with a descriptive error instead of producing nonsense
	// or panicking downstream.
	cfg, err := uarch.Table2Config(uarch.Default(), *width, *stages, *l2kb, *l2ways, *predName)
	if err != nil {
		log.Fatal(err)
	}

	specs := resolveBenchList(*bench)

	if len(specs) == 1 {
		// Single benchmark: stream directly so "profiling ..." shows
		// progress before the (potentially long) run completes.
		if err := report(os.Stdout, specs[0], cfg, *validate, *dyninsts, store); err != nil {
			log.Fatal(err)
		}
		_ = os.Stdout.Sync()
		return
	}
	reports := make([]strings.Builder, len(specs))
	err = par.ForEachCtx(context.Background(), *workers, len(specs), func(i int) error {
		if err := report(&reports[i], specs[i], cfg, *validate, *dyninsts, store); err != nil {
			return fmt.Errorf("%s: %w", specs[i].Name, err)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := range reports {
		fmt.Print(reports[i].String())
	}
	_ = os.Stdout.Sync()
}

// resolveBenchList validates and dedupes the comma-separated -bench
// list, preserving first-occurrence order. On an unknown name it
// prints the available workloads grouped by domain and exits.
func resolveBenchList(bench string) []workloads.Spec {
	seen := make(map[string]bool)
	var specs []workloads.Spec
	for _, name := range strings.Split(bench, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		spec, err := workloads.ByName(name)
		if err != nil {
			log.Printf("unknown benchmark %q; available workloads by domain:", name)
			printWorkloadsByDomain(os.Stderr)
			os.Exit(1)
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		log.Fatal("no benchmarks given (-bench expects a name or comma-separated list; see -list)")
	}
	return specs
}

// printWorkloadsByDomain writes every workload name grouped by its
// application domain.
func printWorkloadsByDomain(w io.Writer) {
	byDomain := make(map[string][]string)
	for _, s := range workloads.All() {
		byDomain[s.Domain] = append(byDomain[s.Domain], s.Name)
	}
	domains := make([]string, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		names := byDomain[d]
		sort.Strings(names)
		fmt.Fprintf(w, "  %-10s %s\n", d, strings.Join(names, " "))
	}
}

func report(w io.Writer, spec workloads.Spec, cfg uarch.Config, validate bool, dyninsts int64, store *artifact.Store) error {
	fmt.Fprintf(w, "profiling %s ...\n", spec.Name)
	pw, fromDisk, err := harness.ProfileProgramCached(store, spec.Name, dyninsts, spec.Build)
	if err != nil {
		return err
	}
	if fromDisk {
		fmt.Fprintf(w, "rehydrated from artifact store (key %.12s...)\n", pw.ArtifactKey())
	}
	fmt.Fprintf(w, "%s\n", pw.Prof)

	st, err := pw.PredictCtx(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ndesign point: %s\n", cfg)
	fmt.Fprintf(w, "predicted cycles: %.0f  CPI: %.4f\n", st.Total(), st.CPI())
	fmt.Fprintf(w, "CPI stack:\n")
	for c := core.Component(0); c < core.NumComponents; c++ {
		if st.Cycles[c] != 0 {
			fmt.Fprintf(w, "  %-12s %8.4f\n", c.String(), st.CPIOf(c))
		}
	}

	if validate {
		sims, err := pw.SimulateDetailedBatchCtx(context.Background(), []uarch.Config{cfg}, 0)
		if err != nil {
			return err
		}
		sim := sims[0]
		errPct := 100 * abs(st.CPI()-sim.CPI()) / sim.CPI()
		fmt.Fprintf(w, "\ndetailed simulation: cycles=%d CPI=%.4f  (model error %.2f%%)\n",
			sim.Cycles, sim.CPI(), errPct)
	}
	fmt.Fprintln(w)
	return nil
}

// renderFront prints the delay/EDP Pareto frontier found by -search,
// in domain enumeration order (fastest design first).
func renderFront(w io.Writer, front []dse.Point) {
	if len(front) == 0 {
		fmt.Fprintln(w, "no frontier to report (nothing evaluated)")
		return
	}
	fmt.Fprintf(w, "%-44s %10s %12s %12s\n", "Pareto frontier (delay vs EDP)", "modelCPI", "seconds", "modelEDP")
	for _, p := range front {
		secs, edp := p.ModelSecs, p.ModelEDP
		if p.Sim != nil {
			secs, edp = p.SimSecs, p.SimEDP
		}
		fmt.Fprintf(w, "%-44s %10.4f %12.4e %12.4e\n", p.Cfg.Name, p.ModelCPI, secs, edp)
	}
	fmt.Fprintln(w)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
