package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// golden holds the expected digest of every program's sweep at seed 1.
// Named programs are the same at every seed; generated programs are
// named after their generator seed, so a name found here is the same
// program.
type golden struct {
	Seed     int64             `json:"seed"`
	Table2   map[string]string `json:"table2_validated"`
	Extended map[string]string `json:"extended_model"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// want returns the expected digest of name's sweep on workload.
func (g *golden) want(workload, name string) (string, bool) {
	if g == nil {
		return "", false
	}
	m := g.Table2
	if workload == "explore-model" {
		m = g.Extended
	}
	d, ok := m[name]
	return d, ok
}

// pick is the seeded design point cross-checked for program i.
func pick(seed int64, i, n int) int {
	return rand.New(rand.NewSource(seed*1000 + int64(i))).Intn(n)
}

// updateGolden recomputes the golden digests from the seed-1 suite,
// cross-checking each program's seeded point on the way.
func updateGolden(ctx context.Context) error {
	const seed = 1
	g := golden{Seed: seed, Table2: map[string]string{}, Extended: map[string]string{}}
	dir := filepath.Join(workRoot, fmt.Sprintf("golden-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	for i, e := range makeSuite(seed, defaultConfig("explore-cold", seed, 0, false).named, 0) {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		s, err := sweepValidated(ctx, nil, -1, -1, dir, e, runtime.NumCPU())
		if err == nil {
			err = s.crossCheck(ctx, pick(seed, i, len(s.pts)))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		g.Table2[e.name] = s.digest()
	}
	mc := defaultConfig("explore-model", seed, 0, false)
	suite := makeSuite(seed, mc.named, mc.randoms)
	resident, err := profileSuite(ctx, suite)
	if err != nil {
		return err
	}
	for i, pw := range resident {
		s, err := sweepModel(ctx, nil, -1, -1, pw)
		if err == nil {
			err = s.crossCheck(ctx, pick(seed, i, len(s.pts)))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", suite[i].name, err)
		}
		g.Extended[suite[i].name] = s.digest()
	}
	return writeJSON(goldenRel, g)
}

// runExplore runs explore-cold, explore-warm or explore-model: passes
// over the suite, one operation per program, until the run's time is
// up. The untraced run reports the set-up time and peak memory; the
// traced run reports pass_s, the sum over programs of each one's
// median operation time, and p50_ms, the median operation.
func runExplore(ctx context.Context, rc runConfig, r *result) error {
	suite := makeSuite(rc.seed, rc.named, rc.randoms)
	dir := filepath.Join(rc.workDir, "store")
	cold := rc.workload == "explore-cold"
	var resident profiledSuite

	setup := func() error {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		switch rc.workload {
		case "explore-cold":
			buildAll(suite)
		case "explore-warm":
			for _, e := range suite {
				if err := fillStore(ctx, dir, e, rc.workers); err != nil {
					return fmt.Errorf("%s: %w", e.name, err)
				}
			}
		case "explore-model":
			// Drop the previous set-up's suite first, so that memory
			// holds one suite at a time.
			resident = nil
			var err error
			resident, err = profileSuite(ctx, suite)
			return err
		}
		return nil
	}
	setupS, err := timeSetup(rc, setup)
	if err != nil {
		return err
	}

	op := func(t *tracer, parent, i int) (sweep, error) {
		if resident != nil {
			return sweepModel(ctx, t, parent, i, resident[i])
		}
		return sweepValidated(ctx, t, parent, i, dir, suite[i], rc.workers)
	}

	// check verifies one sweep: its digest against the golden one (or
	// against the first pass for programs the golden file lacks), a
	// disk hit on the warm workload, and on the first pass the seeded
	// cross-check.
	var errSum, errMax float64
	var errN int
	check := func(pass, i int, s sweep) error {
		e := suite[i]
		d := s.digest()
		want, ok := rc.golden.want(rc.workload, e.name)
		if !ok {
			want, ok = r.Digests[e.name]
		}
		r.Digests[e.name] = d
		if ok && d != want {
			return fmt.Errorf("%s: pass %d digest %s, want %s", e.name, pass, d, want)
		}
		if rc.workload == "explore-warm" && !s.fromDisk {
			return fmt.Errorf("%s: pass %d profiled instead of loading from the store", e.name, pass)
		}
		if pass > 0 {
			return nil
		}
		sum, mx, n := s.cpiErr()
		errSum, errMax, errN = errSum+sum, max(errMax, mx), errN+n
		return s.crossCheck(ctx, pick(rc.seed, i, len(s.pts)))
	}

	// pass runs every program once and returns the sum of the
	// operations' times. Store resets, output checks, and the
	// collection and peak-memory reset before each operation are not
	// timed: every operation starts from the same heap, with freed
	// memory returned to the system, so neither its time nor its peak
	// memory depends on what the previous one left. Untraced passes
	// record each operation's time and peak memory.
	opMs := make([][]float64, len(suite))
	opMB := make([][]float64, len(suite))
	pass := func(t *tracer, n int) (float64, error) {
		if cold {
			if err := os.RemoveAll(dir); err != nil {
				return 0, err
			}
		}
		root := t.begin("pass", -1, -1)
		defer t.end(root, float64(len(suite)))
		var total time.Duration
		for i := range suite {
			if err := restartPeak(); err != nil {
				return 0, err
			}
			id := t.begin("op", root, i)
			start := time.Now()
			s, err := op(t, id, i)
			d := time.Since(start)
			t.end(id, 1)
			total += d
			if t == nil {
				opMs[i] = append(opMs[i], ms(d))
				opMB[i] = append(opMB[i], peakRSSMB())
			}
			r.Attempted++
			if err == nil {
				err = check(n, i, s)
			}
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", suite[i].name, err))
			}
		}
		return total.Seconds(), nil
	}

	// timings records the untraced passes' times into m. A pass's time
	// is estimated program by program, so that a burst of noise on the
	// host spoils one operation rather than a pass.
	timings := func(m map[string]metric) {
		var passMs float64
		var all []float64
		for _, xs := range opMs {
			passMs += median(xs)
			all = append(all, xs...)
		}
		m["pass_s"] = metric{passMs / 1e3, "s"}
		m["p50_ms"] = metric{median(all), "ms"}
	}

	if rc.trace {
		// The first pass cross-checks and warms up. Untraced and traced
		// passes then alternate, running the same calls.
		if _, err := pass(nil, 0); err != nil {
			return err
		}
		t := newTracer()
		n := 0
		err := alternate(rc, r, func(traced bool) (float64, error) {
			n++
			if traced {
				return pass(t, n)
			}
			return pass(nil, n)
		})
		if err != nil {
			return err
		}
		timings(r.Metrics)
		return finishTrace(rc, r, t, func(root int) (float64, error) {
			pdir := filepath.Join(rc.workDir, "probe")
			if err := probeLayers(ctx, t, root, pdir, suite[0], rc.workload == "explore-warm", rc.workers); err != nil {
				return 0, err
			}
			return probeService(ctx, t, root, rc, r, suite[0].name)
		})
	}

	passes := 0
	start := time.Now()
	for ; passes < rc.minPasses || time.Since(start).Seconds() < rc.seconds; passes++ {
		if _, err := pass(nil, passes); err != nil {
			return err
		}
	}
	timings(r.Info)
	r.Metrics["setup_s"] = metric{setupS, "s"}
	// The largest operation's peak, each taken as its median over the
	// passes: one collection more or less in a sweep does not move it.
	var peakMB float64
	for _, xs := range opMB {
		peakMB = max(peakMB, median(xs))
	}
	r.Metrics["peak_rss_mb"] = metric{peakMB, "MB"}
	r.Info["passes"] = metric{float64(passes), "count"}
	r.Info["programs"] = metric{float64(len(suite)), "count"}
	if errN > 0 {
		r.Info["cpi_err_mean_pct"] = metric{100 * errSum / float64(errN), "%"}
		r.Info["cpi_err_max_pct"] = metric{100 * errMax, "%"}
	}
	if resident == nil {
		b, err := storeBytes(dir)
		if err != nil {
			return err
		}
		r.Info["artifact.store_bytes"] = metric{float64(b), "bytes"}
	}
	return nil
}
