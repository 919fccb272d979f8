package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGoldenHTTP = flag.Bool("update-golden-http", false, "rewrite testdata/golden_http.json from the running service")

const goldenHTTPPath = "testdata/golden_http.json"

// goldenExchange is one pinned request: what the client sees of the
// answer, with the body reduced to its SHA-256.
type goldenExchange struct {
	Request     string `json:"request"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	RetryAfter  string `json:"retry_after,omitempty"`
	BodySHA256  string `json:"body_sha256"`
}

// goldenHTTP is the committed form of the HTTP surface.
type goldenHTTP struct {
	Exchanges []goldenExchange `json:"exchanges"`
	// MetricsKeys are the sorted JSON key paths of /metrics, per server
	// kind; values are not pinned.
	MetricsKeys map[string][]string `json:"metrics_keys"`
}

// goldenRecorder replays requests against live servers and collects
// their exchanges, keeping the bodies for a failure report.
type goldenRecorder struct {
	t         *testing.T
	exchanges []goldenExchange
	bodies    []string
}

// do sends one request to base+path under label and records the
// answer. Every occurrence of each string in redact is replaced in the
// body by "$ARTIFACT_DIR" before hashing.
func (g *goldenRecorder) do(label, method, base, path, body string, redact ...string) {
	g.t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		g.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		g.t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		g.t.Fatal(err)
	}
	text := string(raw)
	for _, s := range redact {
		text = strings.ReplaceAll(text, s, "$ARTIFACT_DIR")
	}
	sum := sha256.Sum256([]byte(text))
	name := method + " " + path
	if label != "" {
		name = label + ": " + name
	}
	g.exchanges = append(g.exchanges, goldenExchange{
		Request:     name,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		RetryAfter:  resp.Header.Get("Retry-After"),
		BodySHA256:  hex.EncodeToString(sum[:]),
	})
	g.bodies = append(g.bodies, text)
}

// metricsKeys returns the sorted JSON key paths of base's /metrics:
// object members joined by ".", array elements as "[]".
func metricsKeys(t *testing.T, base string) []string {
	t.Helper()
	var doc any
	resp := getJSON(t, base+"/metrics", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics answered %d", resp.StatusCode)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				seen[p] = true
				walk(p, e)
			}
		case []any:
			for _, e := range x {
				walk(prefix+"[]", e)
			}
		}
	}
	walk("", doc)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestGoldenHTTP pins the service's HTTP surface: for a fixed corpus
// of requests — every validation case, requests with several faults at
// once (which pin the order of the checks), predicts, sweeps and
// search streams, the listings, ingestion, and the proxy hop of a
// two-node ring — the status, Content-Type, Retry-After and body
// digest of each answer, plus the key paths of /metrics. Regenerate
// with -update-golden-http only for a change that means to alter what
// clients see.
func TestGoldenHTTP(t *testing.T) {
	g := &goldenRecorder{t: t}
	got := goldenHTTP{MetricsKeys: map[string][]string{}}

	// A fixed pot: explore's workers field and the validated token
	// count follow it.
	plain := newTestServer(t, Config{Workers: 2})
	for _, path := range []string{
		// TestRequestValidation.
		"/v1/predict",
		"/v1/predict?bench=nosuch",
		"/v1/predict?bench=crc32&width=0",
		"/v1/predict?bench=crc32&width=7",
		"/v1/predict?bench=crc32&l2kb=100",
		"/v1/predict?bench=crc32&l2ways=5",
		"/v1/predict?bench=crc32&stages=6",
		"/v1/predict?bench=crc32&pred=alwaystaken",
		"/v1/predict?bench=crc32&width=abc",
		"/v1/predict?bench=crc32&validate=yes",
		"/v1/predict?bench=crc32&predictor=hybrid",
		"/v1/explore?bench=crc32&l2_kb=256",
		"/v1/explore?bench=crc32&l2kb=100",
		"/v1/explore",
		"/v1/explore?bench=crc32&width=1&l2kb=128&l2ways=8&pred=gshare&top=-3",

		// Several faults at once: the first check in each endpoint's
		// order wins.
		"/v1/predict?bench=nosuch&width=0&predictor=x",
		"/v1/predict?width=0",
		"/v1/predict?bench=nosuch&width=0",
		"/v1/predict?bench=nosuch&validate=yes",
		"/v1/predict?bench=crc32&width=0&validate=yes",
		"/v1/predict?bench=crc32&width=abc&stages=6",
		"/v1/explore?bench=crc32&space=bogus&l2_kb=1",
		"/v1/explore?space=bogus",
		"/v1/explore?l2_kb=1",
		"/v1/explore?top=abc",
		"/v1/explore?bench=crc32&space=table2&l1kb=16",
		"/v1/explore?bench=crc32&mode=search&width=1&budget=-1",
		"/v1/explore?bench=crc32&mode=search&budget=-1&seed=x",
		"/v1/explore?bench=crc32&mode=search&budget=abc&seed=x",
		"/v1/explore?bench=crc32&mode=search&seed=x",
		"/v1/explore?bench=nosuch&mode=search&seed=x",
		"/v1/explore?bench=nosuch&mode=search",
		"/v1/explore?bench=crc32&budget=5",
		"/v1/explore?bench=crc32&seed=5&l2kb=100",
		"/v1/explore?bench=crc32&mode=bogus",
		"/v1/explore?bench=crc32&mode=bogus&top=abc",
		"/v1/explore?bench=crc32&mode=bogus&validate=yes",
		"/v1/explore?bench=crc32&top=abc",
		"/v1/explore?bench=crc32&top=abc&validate=yes",
		"/v1/explore?bench=nosuch&top=abc",
		"/v1/explore?bench=nosuch&l2kb=100",
		"/v1/explore?bench=nosuch",

		// Predicts at the default and at changed axes.
		"/v1/predict?bench=crc32",
		"/v1/predict?bench=crc32&validate=true",
		"/v1/predict?bench=crc32&width=2&stages=5&l2kb=256&l2ways=16&pred=hybrid",
		"/v1/predict?bench=crc32&width=1&stages=7&l2kb=128&l2ways=16&pred=hybrid&validate=true",
		"/v1/predict?bench=sha&validate=false",
		"/v1/predict?bench=sha&width=3&l2kb=1024&validate=1",

		// Sweeps: filtered, top and validated, on both spaces.
		"/v1/explore?bench=crc32",
		"/v1/explore?bench=crc32&mode=sweep&width=2&l2kb=128",
		"/v1/explore?bench=crc32&top=5",
		"/v1/explore?bench=crc32&validate=true&width=2&l2kb=128&pred=gshare",
		"/v1/explore?bench=crc32&validate=true&width=4&stages=9&top=2",
		"/v1/explore?bench=crc32&space=extended&top=5",
		"/v1/explore?bench=crc32&space=extended&width=1&stages=5&l2kb=128&l2ways=8&pred=gshare",
		"/v1/explore?bench=crc32&space=extended&validate=true&width=2&stages=9&l2kb=256&l2ways=8&pred=hybrid&l1kb=32",
		"/v1/explore?bench=crc32&space=extended&validate=true&width=1&stages=5&l2kb=128&l2ways=8&pred=gshare&top=3",
		"/v1/explore?bench=crc32&space=extended&validate=true&stages=5&fscale=1.2",

		// Search streams.
		"/v1/explore?bench=crc32&mode=search&budget=24&seed=3",
		"/v1/explore?bench=crc32&mode=search&space=table2&budget=64&seed=9&top=4",
		"/v1/explore?bench=crc32&mode=search&space=extended&budget=40&seed=7&top=4",
		"/v1/explore?bench=crc32&mode=search&budget=12&seed=1&validate=true&top=3",
		"/v1/explore?bench=sha&mode=search&seed=-5&budget=8",

		// Listings without a store, and routes the mux answers itself.
		"/v1/workloads",
		"/healthz",
		"/v1/artifacts",
		"/v1/artifacts/" + strings.Repeat("0", 64),
		"/v1/artifacts/not-a-key",
		"/v1/nosuch",
	} {
		g.do("", "GET", plain.URL, path, "")
	}
	g.do("", "POST", plain.URL, "/v1/predict?bench=crc32", "")

	// A server with an artifact store, whose directory the bodies of
	// /healthz and /v1/artifacts name.
	dir := t.TempDir()
	stored := newTestServer(t, Config{Workers: 2, ArtifactDir: dir, MaxBodyBytes: 4 << 10})
	for _, path := range []string{"/healthz", "/v1/artifacts", "/v1/workloads"} {
		g.do("store", "GET", stored.URL, path, "", dir)
	}
	g.do("store", "GET", stored.URL, "/v1/predict?bench=crc32&validate=true", "")
	g.do("store", "POST", stored.URL, "/v1/workloads", ingGood)
	var ing IngestResponse
	if err := json.Unmarshal([]byte(g.bodies[len(g.bodies)-1]), &ing); err != nil || ing.Name == "" {
		t.Fatalf("ingest answer %q: %v", g.bodies[len(g.bodies)-1], err)
	}
	g.do("store", "POST", stored.URL, "/v1/workloads", ingGood)
	g.do("store", "POST", stored.URL, "/v1/workloads", "not assembly at all")
	g.do("store", "POST", stored.URL, "/v1/workloads", strings.Repeat("x", 64<<10))
	for _, path := range []string{"/v1/artifacts", "/v1/workloads", "/v1/artifacts/" + strings.Repeat("0", 64)} {
		g.do("store", "GET", stored.URL, path, "", dir)
	}
	g.do("store", "GET", stored.URL, "/v1/predict?bench="+ing.Name+"&width=2", "")
	g.do("store", "GET", stored.URL, "/v1/explore?bench="+ing.Name+"&width=2&l2kb=128&top=2", "")

	// A two-node ring, asked through the member that does not own the
	// workload: the answer crosses one proxy hop.
	nodes := startFleet(t, 2, nil)
	asked := nodes[0]
	if nodes[0].srv.owned("crc32") {
		asked = nodes[1]
	}
	base := "http://" + asked.addr
	g.do("ring", "GET", base, "/v1/predict?bench=crc32&width=2&stages=7&l2kb=256&pred=hybrid", "")
	g.do("ring", "GET", base, "/v1/explore?bench=crc32&mode=search&budget=24&seed=3", "")
	if n := asked.srv.proxied.Load(); n != 2 {
		t.Fatalf("the non-owner proxied %d requests, want 2", n)
	}

	got.Exchanges = g.exchanges
	got.MetricsKeys["plain"] = metricsKeys(t, plain.URL)
	got.MetricsKeys["store"] = metricsKeys(t, stored.URL)
	got.MetricsKeys["ring"] = metricsKeys(t, base)

	if *updateGoldenHTTP {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenHTTPPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenHTTPPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenHTTPPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update-golden-http)", err)
	}
	var want goldenHTTP
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Exchanges) != len(want.Exchanges) {
		t.Fatalf("%d exchanges, golden has %d", len(got.Exchanges), len(want.Exchanges))
	}
	for i, w := range want.Exchanges {
		if got.Exchanges[i] != w {
			body := g.bodies[i]
			if len(body) > 2000 {
				body = body[:2000] + "..."
			}
			t.Errorf("exchange %d:\n got  %+v\n want %+v\n body %s", i, got.Exchanges[i], w, body)
		}
	}
	for kind, keys := range want.MetricsKeys {
		if strings.Join(got.MetricsKeys[kind], "\n") != strings.Join(keys, "\n") {
			t.Errorf("/metrics key paths of the %s server:\n got  %v\n want %v", kind, got.MetricsKeys[kind], keys)
		}
	}
	if len(got.MetricsKeys) != len(want.MetricsKeys) {
		t.Errorf("metrics key sets for %d servers, golden has %d", len(got.MetricsKeys), len(want.MetricsKeys))
	}
}
