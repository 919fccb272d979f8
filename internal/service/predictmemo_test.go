package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/dse"
	"repro/internal/uarch"
)

// TestPredictBodiesMatchReference asks /v1/predict for every Table 2
// point of sha and crc32 and compares each body, byte for byte, with
// the one built from pw.PredictCtx — the per-point replay through
// cache.Hierarchy that shares no code with the statistics memo the
// handler reads. A second pass over the space walks no trace, which
// /metrics shows as an unchanged stats_traversals.
func TestPredictBodiesMatchReference(t *testing.T) {
	ts := newTestServer(t, Config{})
	space := dse.Space(uarch.Default())
	for _, bench := range []string{"sha", "crc32"} {
		pw := profiledDirect(t, bench)
		for _, cfg := range space {
			cj := configJSON(cfg)
			url := fmt.Sprintf("%s/v1/predict?bench=%s&width=%d&stages=%d&l2kb=%d&l2ways=%d&pred=%s",
				ts.URL, bench, cj.Width, cj.Stages, cj.L2KB, cj.L2Ways, cj.Predictor)
			got := getBody(t, url)
			st, err := pw.PredictCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			if err := enc.Encode(predictResponse(bench, pw.Prof.N, cfg, st)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s %s:\n got  %s\n want %s", bench, cfg.Name, got, want.Bytes())
			}
		}
	}

	walks := func() int64 {
		var m Metrics
		getJSON(t, ts.URL+"/metrics", &m)
		return m.Pool.StatsTraversals
	}
	// Each bench has 8 hierarchies and 2 predictors, so at most 10
	// walks each.
	first := walks()
	if first < 2 || first > 20 {
		t.Fatalf("stats_traversals after the first pass = %d, want 2..20", first)
	}
	for _, bench := range []string{"sha", "crc32"} {
		for _, cfg := range space {
			cj := configJSON(cfg)
			getBody(t, fmt.Sprintf("%s/v1/predict?bench=%s&width=%d&stages=%d&l2kb=%d&l2ways=%d&pred=%s",
				ts.URL, bench, cj.Width, cj.Stages, cj.L2KB, cj.L2Ways, cj.Predictor))
		}
	}
	if again := walks(); again != first {
		t.Fatalf("a second pass over resident points walked the trace: stats_traversals %d -> %d", first, again)
	}
}

// getBody returns the body of a 200 answer to GET url.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}
