package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// results is the file runAll writes and -compare reads.
type results struct {
	Seed    int64          `json:"seed"`
	Runs    int            `json:"runs"`
	Seconds float64        `json:"seconds"`
	Results []*result      `json:"results"`
	CodeLOC map[string]int `json:"code_loc"`
}

// runAll runs every workload runs times untraced, with seeds seed,
// seed+1, ..., and once traced at seed, each run in a child process of
// its own so that peak memory is the workload's. It prints the median
// of every metric and writes bench/out/results.json.
func runAll(seed int64, seconds float64, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	all := results{Seed: seed, Runs: runs, Seconds: seconds}
	var failures []string
	for _, w := range workloadNames {
		for k := 0; k <= runs; k++ {
			trace, s := 0, seed+int64(k)
			if k == runs {
				trace, s = 1, seed
			}
			rec := filepath.Join(outDir, "run-"+w+".json")
			if err := os.Remove(rec); err != nil && !os.IsNotExist(err) {
				return err
			}
			cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-record", rec)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			runErr := cmd.Run()
			var r result
			if err := readJSON(rec, &r); err != nil {
				failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %v (%v)", w, s, trace, runErr, err))
				continue
			}
			if !r.Correct {
				failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %d of %d operations failed", w, s, trace, r.Failed, r.Attempted))
			}
			all.Results = append(all.Results, &r)
		}
	}
	failures = append(failures, compareDigests(all.Results, "explore-cold", "explore-warm")...)

	summarize(all.Results)
	if all.CodeLOC, err = codeLOC("."); err != nil {
		return err
	}
	for _, k := range sortedKeys(all.CodeLOC) {
		fmt.Printf("code code.loc.%s %d lines\n", k, all.CodeLOC[k])
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, all); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if len(failures) > 0 {
		return fmt.Errorf("output checks failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// compareDigests checks that two workloads' sweeps of the same program
// at the same seed are bit-identical.
func compareDigests(rs []*result, a, b string) []string {
	var out []string
	for _, ra := range rs {
		for _, rb := range rs {
			if ra.Workload != a || rb.Workload != b || ra.Seed != rb.Seed {
				continue
			}
			for name, d := range ra.Digests {
				if e, ok := rb.Digests[name]; ok && e != d {
					out = append(out, fmt.Sprintf("%s: %s digest %s, %s digest %s at seed %d", name, a, d, b, e, ra.Seed))
				}
			}
		}
	}
	return out
}

// summarize prints, per workload, the median of every value over the
// untraced runs with its quartiles, then the traced run's values.
func summarize(rs []*result) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			vals := map[string][]float64{}
			units := map[string]string{}
			for _, r := range rs {
				if r.Workload != w || r.Trace != traced {
					continue
				}
				for _, m := range []map[string]metric{r.Metrics, r.Info} {
					for n, v := range m {
						vals[n] = append(vals[n], v.Value)
						units[n] = v.Unit
					}
				}
			}
			for _, n := range sortedKeys(vals) {
				q1, _, q3 := quartiles(vals[n])
				fmt.Printf("%s %s %v %s  (q1 %.4g, q3 %.4g, %d runs)\n", w, n, median(vals[n]), units[n], q1, q3, len(vals[n]))
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// codeLOC counts the non-test Go lines of every package under
// internal/ and cmd/ below root, keyed by package path with dots.
func codeLOC(root string) (map[string]int, error) {
	out := map[string]int{}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			out[strings.ReplaceAll(filepath.ToSlash(rel), "/", ".")] += bytes.Count(data, []byte{'\n'})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
