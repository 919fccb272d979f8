package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// serveBenches are the programs serve-mixed's requests draw from.
var serveBenches = []string{"sha", "crc32"}

// serveRates are the open-loop arrival rates, in requests per second;
// p50_ms is the first one's.
var serveRates = []float64{100, 250}

// servePassRequests is how many requests make one serve-mixed pass:
// pass_s is the time the closed loop takes to answer that many.
const servePassRequests = 1000

// loadPhase is one phase of cmd/loadgen's JSON report, as far as the
// benchmark reads it.
type loadPhase struct {
	AchievedQPS float64 `json:"achieved_qps"`
	Requests    int     `json:"requests"`
	LatencyMs   struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
	} `json:"latency_ms"`
}

// loadReport is cmd/loadgen's JSON report, as far as the benchmark
// reads it.
type loadReport struct {
	Closed      *loadPhase `json:"closed"`
	Open        *loadPhase `json:"open"`
	Requests    int        `json:"requests_total"`
	ErrorsTotal int        `json:"errors_total"`
}

// phase is the report's one phase: the open loop's when it ran one.
func (lr loadReport) phase() *loadPhase {
	if lr.Open != nil {
		return lr.Open
	}
	return lr.Closed
}

// loadWindow runs cmd/loadgen once against base with its 80/15/5
// predict/explore/ingest mix over benches, a tenth of the predicts
// validated: an open loop at rate requests per second for d, or, when
// rate is 0, a closed loop on runtime.NumCPU() connections for d. Its
// requests and errors are counted into r.
func loadWindow(ctx context.Context, rc runConfig, r *result, base string, seed int64, benches []string, rate float64, d time.Duration) (loadReport, error) {
	out := filepath.Join(rc.workDir, "load.json")
	args := []string{"-targets", base, "-seed", strconv.FormatInt(seed, 10),
		"-benches", strings.Join(benches, ","), "-validate-frac", "0.1", "-out", out}
	if rate == 0 {
		args = append(args, "-duration", d.String(), "-concurrency", strconv.Itoa(runtime.NumCPU()))
	} else {
		args = append(args, "-duration", "0", "-rate", strconv.FormatFloat(rate, 'g', -1, 64), "-open-duration", d.String())
	}
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, rc.loadgen, args...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return loadReport{}, fmt.Errorf("loadgen %s: %w\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var lr loadReport
	if err := readJSON(out, &lr); err != nil {
		return loadReport{}, err
	}
	if lr.phase() == nil {
		return loadReport{}, fmt.Errorf("loadgen %s: no phase in the report", strings.Join(args, " "))
	}
	r.Attempted += lr.Requests
	if lr.ErrorsTotal > 0 {
		r.Failed += lr.ErrorsTotal
		fmt.Fprintf(os.Stderr, "bench: %s: loadgen %s: %d of %d requests failed\n",
			r.Workload, strings.Join(args, " "), lr.ErrorsTotal, lr.Requests)
	}
	return lr, nil
}

// checkedHandler wraps the service. It checks that every predict or
// explore URL is answered with the same bytes each time it is
// requested, and while a tracer is installed it records a span for
// every request under the span in parent.
type checkedHandler struct {
	h      http.Handler
	t      atomic.Pointer[tracer]
	parent atomic.Int64
	seq    atomic.Int64 // op id of the next request

	mu   sync.Mutex
	seen map[string][sha256.Size]byte // body digest per predict/explore URL
	bad  []string                     // URLs whose answer changed
}

// recorder passes a response through, hashing its body and noting its
// status.
type recorder struct {
	http.ResponseWriter
	h      hash.Hash
	status int
}

func (rw *recorder) WriteHeader(code int) {
	rw.status = code
	rw.ResponseWriter.WriteHeader(code)
}

func (rw *recorder) Write(p []byte) (int, error) {
	rw.h.Write(p)
	return rw.ResponseWriter.Write(p)
}

func (rw *recorder) Flush() {
	if f, ok := rw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (ch *checkedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := "ingest"
	if r.Method == http.MethodGet {
		kind = strings.TrimPrefix(r.URL.Path, "/v1/")
	}
	rw := &recorder{ResponseWriter: w, h: sha256.New(), status: http.StatusOK}
	t := ch.t.Load()
	id := t.begin("service.handler."+kind, int(ch.parent.Load()), int(ch.seq.Add(1)-1))
	ch.h.ServeHTTP(rw, r)
	t.end(id, 1)
	// Non-2xx answers reach loadgen's error count.
	if r.Method != http.MethodGet || rw.status/100 != 2 {
		return
	}
	var sum [sha256.Size]byte
	rw.h.Sum(sum[:0])
	url := r.URL.RequestURI()
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if prev, ok := ch.seen[url]; ok && prev != sum {
		ch.bad = append(ch.bad, url)
	}
	ch.seen[url] = sum
}

// trace installs t, recording request spans under parent; a nil t
// stops recording.
func (ch *checkedHandler) trace(t *tracer, parent int) {
	ch.parent.Store(int64(parent))
	ch.t.Store(t)
}

// changed returns the URLs whose answer changed, and forgets them.
func (ch *checkedHandler) changed() []string {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	bad := ch.bad
	ch.bad = nil
	return bad
}

// liveServer is an in-process modeld on a loopback listener.
type liveServer struct {
	server
	base string
	ch   *checkedHandler
	hs   *http.Server
	done chan struct{}
}

func startServer(workers int) (*liveServer, error) {
	srv, err := newServer(workers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{server: srv, base: "http://" + ln.Addr().String(),
		ch:   &checkedHandler{h: srv.handler(), seen: map[string][sha256.Size]byte{}},
		done: make(chan struct{})}
	ls.hs = &http.Server{Handler: ls.ch}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return ls, nil
}

// close stops the server and waits for it to exit.
func (ls *liveServer) close() {
	_ = ls.hs.Close()
	<-ls.done
}

// warmUp profiles each bench into the server's pool.
func (ls *liveServer) warmUp(benches []string) error {
	hc := &http.Client{Timeout: time.Minute}
	defer hc.CloseIdleConnections()
	for _, b := range benches {
		resp, err := hc.Get(ls.base + "/v1/predict?bench=" + b)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warming up %s: status %d", b, resp.StatusCode)
		}
	}
	return nil
}

// checkAnswers counts a failed operation for every URL whose answer
// changed since the last check.
func (ls *liveServer) checkAnswers(r *result) {
	for _, url := range ls.ch.changed() {
		r.fail(fmt.Errorf("GET %s: response differs from an earlier one", url))
	}
}

// runServe runs serve-mixed. The untraced run sends open-loop windows
// at each of serveRates, then closed-loop windows on every connection,
// each window one cmd/loadgen process, and reports the set-up time and
// the closed loop's peak memory. The traced run reports the request
// times instead.
func runServe(ctx context.Context, rc runConfig, r *result) error {
	var ls *liveServer
	defer func() {
		if ls != nil {
			ls.close()
		}
	}()
	setupS, err := timeSetup(rc, func() error {
		if ls != nil {
			ls.close()
		}
		var err error
		if ls, err = startServer(rc.workers); err != nil {
			return err
		}
		return ls.warmUp(serveBenches)
	})
	if err != nil {
		return err
	}
	if rc.trace {
		return traceServe(ctx, rc, r, ls)
	}
	for _, rate := range serveRates {
		if err := openLoop(ctx, rc, r, ls, rate, r.Info); err != nil {
			return err
		}
	}
	if err := closedWindow(ctx, rc, r, ls); err != nil {
		return err
	}
	// Peak memory is the closed loop's, with NumCPU requests in flight:
	// the open loop's backlog, and so its memory, grows with how far
	// the host falls behind 250 requests per second.
	if err := restartPeak(); err != nil {
		return err
	}
	var qps []float64
	for k := 0; k < rc.windows; k++ {
		lr, err := loadWindow(ctx, rc, r, ls.base, rc.seed, serveBenches, 0, rc.closedWindow)
		if err != nil {
			return err
		}
		qps = append(qps, lr.Closed.AchievedQPS)
	}
	ls.checkAnswers(r)
	r.Metrics["setup_s"] = metric{setupS, "s"}
	r.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	r.Info["pass_s"] = metric{servePassRequests / median(qps), "s"}
	r.Info["sat_qps"] = metric{median(qps), "1/s"}
	hit, profiles := ls.poolStats()
	r.Info["harness.pool.hit_ratio"] = metric{hit, "ratio"}
	r.Info["harness.pool.profiles"] = metric{float64(profiles), "count"}
	r.Info["service.shed"] = metric{float64(ls.shed()), "count"}
	return nil
}

// openLoop sends rc.windows open-loop windows at rate, seeded seed,
// seed+1, ..., and records into m the median over the windows of each
// window's p50: p50_ms at the first of serveRates, p50_ms_r<rate> at
// the others. Its tail and sample count go into r.Info.
func openLoop(ctx context.Context, rc runConfig, r *result, ls *liveServer, rate float64, m map[string]metric) error {
	tag := fmt.Sprintf("r%.0f", rate)
	var p50s, tails []float64
	var samples int
	tailName := ""
	for k := 0; k < rc.windows; k++ {
		lr, err := loadWindow(ctx, rc, r, ls.base, rc.seed+int64(k), serveBenches, rate, rc.window)
		if err != nil {
			return err
		}
		ph := lr.phase()
		p50s = append(p50s, ph.LatencyMs.P50)
		samples += ph.Requests
		// The highest of loadgen's tail percentiles with at least ten
		// samples beyond it in the window.
		for _, c := range []struct {
			q    float64
			name string
			v    float64
		}{{0.99, "p99", ph.LatencyMs.P99}, {0.95, "p95", ph.LatencyMs.P95}} {
			if ph.Requests-rankOf(ph.Requests, c.q) >= 10 && (tailName == "" || tailName == c.name) {
				tailName = c.name
				tails = append(tails, c.v)
				break
			}
		}
	}
	name := "p50_ms_" + tag
	if rate == serveRates[0] {
		name = "p50_ms"
	}
	m[name] = metric{median(p50s), "ms"}
	if tailName != "" {
		r.Info["serve."+tailName+"_ms."+tag] = metric{median(tails), "ms"}
	}
	r.Info["serve.samples."+tag] = metric{float64(samples), "count"}
	return nil
}

// closedWindow sends one closed-loop window of the request sequence
// seeded rc.seed, untimed. Every closed-loop window replays that
// sequence from its start, so after this one each finds the service's
// memoized validations in the same state.
func closedWindow(ctx context.Context, rc runConfig, r *result, ls *liveServer) error {
	_, err := loadWindow(ctx, rc, r, ls.base, rc.seed, serveBenches, 0, rc.closedWindow)
	return err
}

// traceServe is serve-mixed's traced run: open-loop windows at the
// first rate, then closed-loop windows, untraced and traced in
// alternation, then the layer probes on the first bench. Handler spans
// fall under their window's span.
func traceServe(ctx context.Context, rc runConfig, r *result, ls *liveServer) error {
	if err := openLoop(ctx, rc, r, ls, serveRates[0], r.Metrics); err != nil {
		return err
	}
	if err := closedWindow(ctx, rc, r, ls); err != nil {
		return err
	}
	t := newTracer()
	var base, clientP50 []float64
	err := alternate(rc, r, func(traced bool) (float64, error) {
		if !traced {
			lr, err := loadWindow(ctx, rc, r, ls.base, rc.seed, serveBenches, 0, rc.closedWindow)
			if err != nil {
				return 0, err
			}
			base = append(base, 1/lr.Closed.AchievedQPS)
			return 1 / lr.Closed.AchievedQPS, nil
		}
		root := t.begin("pass", -1, -1)
		op := t.begin("op", root, len(clientP50))
		ls.ch.trace(t, op)
		lr, err := loadWindow(ctx, rc, r, ls.base, rc.seed, serveBenches, 0, rc.closedWindow)
		ls.ch.trace(nil, -1)
		t.end(op, float64(lr.Requests))
		t.end(root, 1)
		if err != nil {
			return 0, err
		}
		clientP50 = append(clientP50, lr.Closed.LatencyMs.P50)
		return 1 / lr.Closed.AchievedQPS, nil
	})
	if err != nil {
		return err
	}
	ls.checkAnswers(r)
	r.Metrics["pass_s"] = metric{servePassRequests * median(base), "s"}
	return finishTrace(rc, r, t, func(root int) (float64, error) {
		e, err := namedEntry(serveBenches[0])
		if err != nil {
			return 0, err
		}
		if err := probeLayers(ctx, t, root, filepath.Join(rc.workDir, "probe"), e, false, rc.workers); err != nil {
			return 0, err
		}
		// The windows' handler spans are preferred; the probe's stand in
		// for a kind of request they happened not to send.
		if _, err := probeService(ctx, t, root, rc, r, e.name); err != nil {
			return 0, err
		}
		return median(clientP50), nil
	})
}

// probeService measures the HTTP layers on bench for the workloads
// that send no requests: one closed-loop cmd/loadgen window against a
// fresh in-process service. It returns the window's client p50.
func probeService(ctx context.Context, t *tracer, root int, rc runConfig, r *result, bench string) (float64, error) {
	ls, err := startServer(rc.workers)
	if err != nil {
		return 0, err
	}
	defer ls.close()
	if err := ls.warmUp([]string{bench}); err != nil {
		return 0, err
	}
	op := t.begin("op", root, -1)
	ls.ch.trace(t, op)
	defer ls.ch.trace(nil, -1)
	// Windows are added, seeded seed, seed+1, ..., until every kind of
	// request has been handled.
	var p50s []float64
	requests := 0
	for k := int64(0); !handledAll(t, op); k++ {
		if k == 10 {
			return 0, fmt.Errorf("%d windows sent no request of some kind", k)
		}
		lr, err := loadWindow(ctx, rc, r, ls.base, rc.seed+k, []string{bench}, 0, rc.window)
		if err != nil {
			return 0, err
		}
		p50s = append(p50s, lr.Closed.LatencyMs.P50)
		requests += lr.Requests
	}
	t.end(op, float64(requests))
	ls.checkAnswers(r)
	return median(p50s), nil
}

// handledAll reports whether t holds a handler span under op for every
// kind of request.
func handledAll(t *tracer, op int) bool {
	seen := map[string]bool{}
	for _, s := range t.snapshot() {
		if s.Parent == op {
			seen[s.Name] = true
		}
	}
	return seen["service.handler.predict"] && seen["service.handler.explore"] && seen["service.handler.ingest"]
}
