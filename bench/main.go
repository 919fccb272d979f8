// Command bench is the repository's performance benchmark. It runs
// four workloads — cold, warm and model-only design-space exploration,
// and mixed modeld traffic — checks every output, and reports the
// end-to-end metrics named in BENCHMARK.json; a traced run reports the
// per-layer metrics instead. See README.md beside this file.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh -seed 1                       # every workload, results in bench/out/results.json
//	bash bench/run.sh -workload explore-cold -seed 3 -seconds 20 -trace 0
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloadNames are the benchmark's workloads, in run order.
var workloadNames = []string{"explore-cold", "explore-warm", "explore-model", "serve-mixed"}

const (
	outDir      = "bench/out"
	workRoot    = ".bench_build/work"
	goldenRel   = "bench/golden.json"
	loadgenPath = ".bench_build/loadgen" // built by bench/run.sh
)

// runConfig sizes one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int

	named, randoms int           // suite: named programs, then generated ones
	minPasses      int           // explore passes at least run
	setups         int           // set-ups at least timed
	setupMin       time.Duration // and at least this long in total
	windows        int           // serve: windows per open-loop rate, and closed-loop windows
	window         time.Duration // serve: open-loop window length
	closedWindow   time.Duration // serve: closed-loop window length
	loadgen        string        // serve: the cmd/loadgen binary

	workDir string  // empty working directory, removed after the run
	outDir  string  // where traced runs write their spans
	golden  *golden // expected digests; programs it lacks are checked across passes
}

// defaultConfig is the configuration BENCHMARK.json's runs use.
//
// Generated programs join only the model-only suite. Their code and
// data share low addresses, and where a cache block holds both, the
// validated sweep's annotation planes take that block's first L2 miss
// in trace order while pipeline.Simulate takes it in pipeline order:
// the simulated cycles differ by a few, and the cross-check would fail
// (see README.md). The named programs are exact at every Table 2
// point.
func defaultConfig(workload string, seed int64, seconds float64, trace bool) runConfig {
	randoms := 0
	if workload == "explore-model" {
		randoms = 6
	}
	return runConfig{
		workload:  workload,
		seed:      seed,
		seconds:   seconds,
		trace:     trace,
		workers:   runtime.NumCPU(),
		named:     namedPrograms(),
		randoms:   randoms,
		minPasses: 3,
		setups:    3,
		setupMin:  time.Second,
		windows:   3,
		// Six open-loop windows take half the time, three timed
		// closed-loop windows the other half, after an untimed one.
		window:       max(time.Second, time.Duration(seconds*float64(time.Second)/12)),
		closedWindow: max(time.Second, time.Duration(seconds*float64(time.Second)/6)),
		loadgen:      loadgenPath,
	}
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Metrics are the ones BENCHMARK.json
// names; Info holds the rest of what the run measured.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
}

func newResult(rc runConfig) *result {
	return &result{Workload: rc.workload, Seed: rc.seed, Trace: rc.trace,
		Metrics: map[string]metric{}, Info: map[string]metric{}, Digests: map[string]string{}}
}

// fail counts one failed operation and reports why.
func (r *result) fail(err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.Workload, err)
}

// timeSetup runs setup at least rc.setups times and for at least
// rc.setupMin in total (once when tracing), and returns the median
// duration in seconds. The last set-up is the one the run uses.
func timeSetup(rc runConfig, setup func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) == 0 || !rc.trace && (len(ds) < rc.setups || time.Since(start) < rc.setupMin) {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// peakRSSMB is the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sentinel holds a pointer, so that it is never batched with other
// tiny objects and its finalizer runs once it is unreachable.
type sentinel struct{ _ *int }

// restartPeak returns the memory the process no longer uses to the
// system and restarts its peak resident set from what is left, so that
// peakRSSMB then reports the peak since this call. Memory released by
// finalizers, such as the artifact store's file mappings, is released
// first.
func restartPeak() error {
	debug.FreeOSMemory()
	// Finalizers run on one goroutine, a batch at a time. The first
	// sentinel's batch holds the finalizers the collection above
	// queued, or comes after them; the second sentinel's batch comes
	// after the first's. So once the second has run, they all have.
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		runtime.SetFinalizer(&sentinel{}, func(*sentinel) { close(done) })
		runtime.GC()
		<-done
	}
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	_, err = f.WriteString("5") // 5: reset the peak resident set size
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// runOne runs one workload in this process.
func runOne(ctx context.Context, rc runConfig) (*result, error) {
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(rc.workDir)
	r := newResult(rc)
	var err error
	switch rc.workload {
	case "explore-cold", "explore-warm", "explore-model":
		err = runExplore(ctx, rc, r)
	case "serve-mixed":
		err = runServe(ctx, rc, r)
	default:
		err = fmt.Errorf("unknown workload %q (have %v)", rc.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r, nil
}

// printResult prints every metric as `workload metric value unit`, the
// informational values after them, and the result line last.
func printResult(r *result) error {
	for _, m := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %v %s\n", r.Workload, n, m[n].Value, m[n].Unit)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same programs and request streams")
		seconds  = flag.Float64("seconds", 20, "measuring time per run")
		traceOn  = flag.Int("trace", 0, "1 runs one traced pass and reports the per-layer metrics")
		runs     = flag.Int("runs", 1, "untraced runs per workload, with seeds seed, seed+1, ... (without -workload)")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments, against the bounds in BENCHMARK.json")
		update   = flag.Bool("update-golden", false, "recompute "+goldenRel+" at seed 1")
		record   = flag.String("record", "", "also write the run's full record to this JSON file (with -workload)")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two results files")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *update:
		err = updateGolden(ctx)
	case *workload != "":
		err = runSingle(ctx, *workload, *seed, *seconds, *traceOn == 1, *record)
	default:
		err = runAll(*seed, *seconds, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle runs one workload and prints its result; it fails when an
// output check failed.
func runSingle(ctx context.Context, workload string, seed int64, seconds float64, trace bool, record string) error {
	g, err := loadGolden(goldenRel)
	if err != nil {
		return err
	}
	rc := defaultConfig(workload, seed, seconds, trace)
	rc.golden = g
	rc.workDir = filepath.Join(workRoot, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	rc.outDir = outDir
	if trace {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	r, err := runOne(ctx, rc)
	if err != nil {
		return err
	}
	if err := printResult(r); err != nil {
		return err
	}
	if record != "" {
		if err := writeJSON(record, r); err != nil {
			return err
		}
	}
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", workload, r.Failed, r.Attempted)
	}
	return nil
}
