// Command loadgen replays a seeded, mixed traffic profile against one
// modeld node or a ring and reports latency percentiles, an
// error-code taxonomy, and saturation throughput as JSON — the client
// half of the CI load gate (scripts/check_load.py judges the output
// against scripts/load_thresholds.json).
//
// The profile mixes the service's three request families in fixed
// proportion (80% predict, 15% explore, 5% ingest), drawing design
// points uniformly from the Table 2 domain under a deterministic
// seed: two runs with the same seed, targets and duration issue the
// same request sequence, so gate results are comparable across CI
// runs and against the committed thresholds.
//
// Two phases run back to back:
//
//   - closed loop: -concurrency workers issue requests as fast as
//     responses return for -duration. Completed/duration is the
//     saturation throughput at that concurrency.
//   - open loop: requests start on a fixed schedule of -rate per
//     second for -open-duration, regardless of how long responses
//     take — latency under a load the clients don't coordinate on
//     (avoiding coordinated omission). -rate 0 skips the phase.
//
// Usage:
//
//	loadgen -targets http://127.0.0.1:8080 -seed 1 -duration 10s -concurrency 8 -out load.json
//	loadgen -targets http://10.0.0.1:8081,http://10.0.0.2:8081 -rate 200 -open-duration 10s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Table 2 domain values requests are drawn from (the service rejects
// anything outside these, so every generated request is valid).
var (
	widths  = []int{1, 2, 3, 4}
	stages  = []int{5, 7, 9}
	l2kbs   = []int{128, 256, 512, 1024}
	l2wayss = []int{8, 16}
	preds   = []string{"gshare", "hybrid"}
)

// ingestPrograms are tiny fixed assembly programs for the ingestion
// slice of the mix. Fixed text means content-addressed dedupe after
// the first acceptance: steady-state ingestion load is the realistic
// "mostly re-submissions" shape, and tenant quotas never fill up
// during a long run.
var ingestPrograms = []string{
	".mem 64\nmain:\n li r1, 0\n li r2, 40\n li r3, 0\nloop:\n add r3, r3, r1\n addi r1, r1, 1\n blt r1, r2, loop\nend:\n st r3, 0x10(r0)\n halt\n",
	".mem 64\nmain:\n li r1, 0\n li r2, 60\n li r3, 1\nloop:\n add r3, r3, r3\n addi r1, r1, 1\n blt r1, r2, loop\nend:\n st r3, 0x18(r0)\n halt\n",
	".mem 64\nmain:\n li r1, 0\n li r2, 50\n li r3, 0\nloop:\n add r3, r3, r2\n addi r1, r1, 1\n blt r1, r2, loop\nend:\n st r3, 0x20(r0)\n halt\n",
}

// op is one generated request.
type op struct {
	kind   string // "predict" | "explore" | "ingest"
	path   string // query path, for predict/explore
	body   string // assembly source, for ingest
	target string // base URL
}

// generator derives a deterministic op stream from a seed. It is
// mutex-guarded so closed-loop workers all draw from ONE sequence:
// the issued population depends only on (seed, count), not on worker
// scheduling.
type generator struct {
	mu           sync.Mutex
	rng          *rand.Rand
	targets      []string
	benches      []string
	validateFrac float64
	next         int // round-robin target cursor
}

func newGenerator(seed int64, targets, benches []string, validateFrac float64) *generator {
	return &generator{
		rng:          rand.New(rand.NewSource(seed)),
		targets:      targets,
		benches:      benches,
		validateFrac: validateFrac,
	}
}

func (g *generator) gen() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	target := g.targets[g.next%len(g.targets)]
	g.next++
	bench := g.benches[g.rng.Intn(len(g.benches))]
	roll := g.rng.Float64()
	switch {
	case roll < 0.80:
		q := fmt.Sprintf("/v1/predict?bench=%s&width=%d&stages=%d&l2kb=%d&l2ways=%d&pred=%s",
			bench, widths[g.rng.Intn(len(widths))], stages[g.rng.Intn(len(stages))],
			l2kbs[g.rng.Intn(len(l2kbs))], l2wayss[g.rng.Intn(len(l2wayss))],
			preds[g.rng.Intn(len(preds))])
		if g.rng.Float64() < g.validateFrac {
			q += "&validate=true"
		}
		return op{kind: "predict", path: q, target: target}
	case roll < 0.95:
		// A single-width slice of the sweep: 1/4 of the Table 2 space,
		// heavy enough to be a real exploration, light enough that the
		// mix stays predict-dominated in wall time too.
		q := fmt.Sprintf("/v1/explore?bench=%s&width=%d", bench, widths[g.rng.Intn(len(widths))])
		return op{kind: "explore", path: q, target: target}
	default:
		return op{kind: "ingest", path: "/v1/workloads",
			body: ingestPrograms[g.rng.Intn(len(ingestPrograms))], target: target}
	}
}

// sample is one completed request.
type sample struct {
	kind    string
	latency time.Duration
	errCode string // "" on success
}

// errorBody is the service's taxonomy envelope.
type errorBody struct {
	Error struct {
		Code string `json:"code"`
	} `json:"error"`
}

// issue performs one op and classifies the outcome. Any non-2xx maps
// to the taxonomy code in the body (or "http_<status>" when the body
// isn't the envelope); client-side failures are "transport".
func issue(client *http.Client, o op) sample {
	start := time.Now()
	var resp *http.Response
	var err error
	switch o.kind {
	case "ingest":
		req, rerr := http.NewRequest("POST", o.target+o.path, strings.NewReader(o.body))
		if rerr != nil {
			return sample{kind: o.kind, latency: time.Since(start), errCode: "transport"}
		}
		req.Header.Set("X-Tenant", "loadgen")
		resp, err = client.Do(req)
	default:
		resp, err = client.Get(o.target + o.path)
	}
	if err != nil {
		return sample{kind: o.kind, latency: time.Since(start), errCode: "transport"}
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	s := sample{kind: o.kind, latency: time.Since(start)}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return s
	}
	var eb errorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error.Code != "" {
		s.errCode = eb.Error.Code
	} else {
		s.errCode = fmt.Sprintf("http_%d", resp.StatusCode)
	}
	return s
}

// latencyMillis summarizes a latency population.
type latencyMillis struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// percentile returns the q-quantile of sorted latencies via the
// nearest-rank method (exact for the recorded population).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(q*float64(len(sorted))) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func summarize(lats []time.Duration) latencyMillis {
	if len(lats) == 0 {
		return latencyMillis{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return latencyMillis{
		P50: ms(percentile(sorted, 0.50)),
		P95: ms(percentile(sorted, 0.95)),
		P99: ms(percentile(sorted, 0.99)),
		Max: ms(sorted[len(sorted)-1]),
	}
}

// phaseReport is one phase's results in the output JSON.
type phaseReport struct {
	DurationSeconds float64                  `json:"duration_seconds"`
	Concurrency     int                      `json:"concurrency,omitempty"`
	RateQPS         float64                  `json:"rate_qps,omitempty"`
	AchievedQPS     float64                  `json:"achieved_qps"`
	Requests        int                      `json:"requests"`
	Errors          map[string]int           `json:"errors"`
	ErrorRate       float64                  `json:"error_rate"`
	LatencyMs       latencyMillis            `json:"latency_ms"`
	ByOp            map[string]latencyMillis `json:"by_op"`
}

func report(samples []sample, wall time.Duration) phaseReport {
	pr := phaseReport{
		DurationSeconds: wall.Seconds(),
		Requests:        len(samples),
		Errors:          map[string]int{},
		ByOp:            map[string]latencyMillis{},
	}
	var all []time.Duration
	byOp := map[string][]time.Duration{}
	errs := 0
	for _, s := range samples {
		all = append(all, s.latency)
		byOp[s.kind] = append(byOp[s.kind], s.latency)
		if s.errCode != "" {
			pr.Errors[s.errCode]++
			errs++
		}
	}
	if len(samples) > 0 {
		pr.ErrorRate = float64(errs) / float64(len(samples))
	}
	if wall > 0 {
		pr.AchievedQPS = float64(len(samples)) / wall.Seconds()
	}
	pr.LatencyMs = summarize(all)
	for k, v := range byOp {
		pr.ByOp[k] = summarize(v)
	}
	return pr
}

// runClosed drives concurrency workers flat-out until the deadline.
func runClosed(gen *generator, client *http.Client, concurrency int, d time.Duration) ([]sample, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				s := issue(client, gen.gen())
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// runOpen issues requests on a fixed schedule of rate per second for
// d, not waiting for responses (bounded by maxInFlight so a stalled
// server can't spawn unbounded goroutines).
func runOpen(gen *generator, client *http.Client, rate float64, d time.Duration) ([]sample, time.Duration) {
	const maxInFlight = 256
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(d)
	sem := make(chan struct{}, maxInFlight)
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	start := time.Now()
	for {
		select {
		case <-deadline:
			wg.Wait()
			return samples, time.Since(start)
		case <-ticker.C:
			select {
			case sem <- struct{}{}:
			default:
				// In-flight cap reached: record the would-be request as
				// shed by the client so saturation shows up in the data
				// instead of silently skewing the schedule.
				mu.Lock()
				samples = append(samples, sample{kind: "open_overflow", errCode: "client_overload"})
				mu.Unlock()
				continue
			}
			o := gen.gen()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				s := issue(client, o)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}()
		}
	}
}

// Report is the full loadgen output.
type Report struct {
	Seed          int64        `json:"seed"`
	Targets       []string     `json:"targets"`
	Benches       []string     `json:"benches"`
	Mix           string       `json:"mix"`
	Closed        *phaseReport `json:"closed,omitempty"`
	Open          *phaseReport `json:"open,omitempty"`
	SaturationQPS float64      `json:"saturation_qps"`
	RequestsTotal int          `json:"requests_total"`
	ErrorsTotal   int          `json:"errors_total"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		targetsFlag  = flag.String("targets", "http://127.0.0.1:8080", "comma-separated modeld base URLs (round-robined)")
		seed         = flag.Int64("seed", 1, "profile seed: same seed + targets + duration = same request sequence")
		duration     = flag.Duration("duration", 10*time.Second, "closed-loop phase length (0 = skip)")
		concurrency  = flag.Int("concurrency", 8, "closed-loop worker count")
		rate         = flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = skip the open phase)")
		openDuration = flag.Duration("open-duration", 10*time.Second, "open-loop phase length")
		benchesFlag  = flag.String("benches", "sha,crc32", "comma-separated benchmark names to draw from")
		validateFrac = flag.Float64("validate-frac", 0.1, "fraction of predicts carrying validate=true")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		out          = flag.String("out", "", "write the JSON report here ('' = stdout)")
	)
	flag.Parse()
	targets := splitList(*targetsFlag)
	benches := splitList(*benchesFlag)
	if len(targets) == 0 || len(benches) == 0 {
		log.Fatal("need at least one target and one bench")
	}
	client := &http.Client{Timeout: *timeout}

	// Warm pass (untimed): profile every bench on every target once, so
	// the measured phases exercise the paper's steady state — answers
	// from resident traces — rather than one-time profiling cost.
	for _, tgt := range targets {
		for _, b := range benches {
			resp, err := client.Get(tgt + "/v1/predict?bench=" + b)
			if err != nil {
				log.Fatalf("warmup %s on %s: %v", b, tgt, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("warmup %s on %s: status %d", b, tgt, resp.StatusCode)
			}
		}
	}

	rep := Report{Seed: *seed, Targets: targets, Benches: benches,
		Mix: "predict:0.80 explore:0.15 ingest:0.05"}
	if *duration > 0 {
		gen := newGenerator(*seed, targets, benches, *validateFrac)
		samples, wall := runClosed(gen, client, *concurrency, *duration)
		pr := report(samples, wall)
		pr.Concurrency = *concurrency
		rep.Closed = &pr
		rep.SaturationQPS = pr.AchievedQPS
		log.Printf("closed: %d requests in %.1fs (%.1f qps, error rate %.4f, p99 %.1fms)",
			pr.Requests, wall.Seconds(), pr.AchievedQPS, pr.ErrorRate, pr.LatencyMs.P99)
	}
	if *rate > 0 {
		// A fresh generator re-seeded with seed+1 keeps the open phase's
		// sequence independent of how many requests the closed phase got
		// through.
		gen := newGenerator(*seed+1, targets, benches, *validateFrac)
		samples, wall := runOpen(gen, client, *rate, *openDuration)
		pr := report(samples, wall)
		pr.RateQPS = *rate
		rep.Open = &pr
		log.Printf("open: %d requests in %.1fs (target %.1f qps, achieved %.1f, error rate %.4f, p99 %.1fms)",
			pr.Requests, wall.Seconds(), *rate, pr.AchievedQPS, pr.ErrorRate, pr.LatencyMs.P99)
	}
	for _, pr := range []*phaseReport{rep.Closed, rep.Open} {
		if pr == nil {
			continue
		}
		rep.RequestsTotal += pr.Requests
		for _, n := range pr.Errors {
			rep.ErrorsTotal += n
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// splitList parses a comma-separated flag, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
