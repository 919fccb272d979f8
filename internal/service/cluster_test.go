package service

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
)

// fleetNode is one member of a test fleet: a Server bound to a real
// TCP listener (the proxy dials peer addresses, so httptest's
// URL-per-server shape doesn't fit).
type fleetNode struct {
	srv  *Server
	addr string
	hs   *http.Server
}

func (n *fleetNode) url(path string) string { return "http://" + n.addr + path }

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// splitBenches are cheap kernels the fleet tests shard over.
var splitBenches = []string{"sha", "crc32", "adpcm_c", "qsort", "dijkstra", "stringsearch"}

// startFleet boots n ring members on ephemeral ports, re-rolling the
// port allocation until every node owns at least one of splitBenches
// (ownership follows the hash of the ephemeral addresses, so a pure
// re-listen redraws the placement). mutate, when non-nil, adjusts each
// node's Config before New.
func startFleet(t *testing.T, n int, mutate func(i int, cfg *Config)) []*fleetNode {
	t.Helper()
	for attempt := 0; attempt < 40; attempt++ {
		lns := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
		ring, err := cluster.New(addrs, 0)
		if err != nil {
			t.Fatal(err)
		}
		owners := make(map[string]bool)
		for _, b := range splitBenches {
			owners[ring.Owner(b)] = true
		}
		if len(owners) < n {
			for _, ln := range lns {
				_ = ln.Close()
			}
			continue
		}
		nodes := make([]*fleetNode, n)
		for i := range lns {
			cfg := Config{
				ClusterSelf:  addrs[i],
				ClusterPeers: addrs,
				ArtifactDir:  t.TempDir(),
			}
			if mutate != nil {
				mutate(i, &cfg)
			}
			node := &fleetNode{srv: mustNew(t, cfg), addr: addrs[i]}
			node.hs = &http.Server{Handler: node.srv.Handler()}
			go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(node.hs, lns[i])
			t.Cleanup(func() { _ = node.hs.Close() })
			nodes[i] = node
		}
		return nodes
	}
	t.Fatal("40 port draws never split the benches across all nodes")
	return nil
}

// benchOwnedBy returns a splitBenches member owned (or not owned,
// per want) by the node.
func benchOwnedBy(t *testing.T, node *fleetNode, want bool) string {
	t.Helper()
	for _, b := range splitBenches {
		if node.srv.owned(b) == want {
			return b
		}
	}
	t.Fatalf("no bench with owned=%v on %s", want, node.addr)
	return ""
}

// TestClusterProxiedPredictByteIdentical is the core sharding
// acceptance: asking the wrong node answers byte-identically to a
// single-node deployment, via one proxy hop to the owner.
func TestClusterProxiedPredictByteIdentical(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	bench := benchOwnedBy(t, b, true) // owned by b, so a must proxy
	const params = "&width=2&stages=7&l2kb=256&pred=hybrid"
	query := "/v1/predict?bench=" + bench + params

	solo := newTestServer(t, Config{})
	want := fetchBody(t, solo.URL+query)

	got := fetchBody(t, a.url(query))
	if got != want {
		t.Fatalf("proxied predict differs from single-node:\n solo  %s\n fleet %s", want, got)
	}
	if n := a.srv.proxied.Load(); n != 1 {
		t.Fatalf("non-owner proxied %d requests, want 1", n)
	}
	if n := b.srv.proxyReceived.Load(); n != 1 {
		t.Fatalf("owner received %d forwarded requests, want 1", n)
	}
	// The hop is invisible to the LRU split: only the owner computed.
	if n := a.srv.Pool().Stats().Profiles; n != 0 {
		t.Fatalf("non-owner profiled %d workloads, want 0", n)
	}
	if n := b.srv.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("owner profiled %d workloads, want 1", n)
	}
}

// TestClusterDisjointHotSets drives every split bench through ONE
// node; proxying must land each workload only on its owner, so the
// two pools partition the set with no overlap.
func TestClusterDisjointHotSets(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	for _, bench := range splitBenches {
		fetchBody(t, a.url("/v1/predict?bench="+bench))
	}
	var wantA, wantB int64
	for _, bench := range splitBenches {
		owner, other := a, b
		if !a.srv.owned(bench) {
			owner, other = b, a
		}
		if owner == a {
			wantA++
		} else {
			wantB++
		}
		if !owner.srv.Pool().Resident(bench) {
			t.Errorf("bench %s not resident on its owner %s", bench, owner.addr)
		}
		if other.srv.Pool().Resident(bench) {
			t.Errorf("bench %s resident on non-owner %s: hot sets overlap", bench, other.addr)
		}
	}
	if gotA, gotB := a.srv.Pool().Stats().Profiles, b.srv.Pool().Stats().Profiles; gotA != wantA || gotB != wantB {
		t.Fatalf("profile counts (a=%d, b=%d) don't match ownership (a=%d, b=%d)",
			gotA, gotB, wantA, wantB)
	}
}

// TestClusterPeerArtifactRehydration: after the owner profiles and
// persists a workload, a peer forced to serve it locally (forwarded
// request — the loop guard path) answers byte-identically with ZERO
// profiling runs: the artifact tier pulled the owner's stored planes
// over HTTP instead of recomputing.
func TestClusterPeerArtifactRehydration(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	bench := benchOwnedBy(t, b, true)
	// validate=true persists the mem/branch planes too, so the peer's
	// validated replay rehydrates everything.
	query := "/v1/predict?bench=" + bench + "&width=2&stages=7&l2kb=256&pred=hybrid&validate=true"
	want := fetchBody(t, b.url(query))

	// A forwarded request pins a to its local compute path (the loop
	// guard forbids a second hop), exactly what a would do for this
	// bench if b's member entry vanished from a future member list.
	req, err := http.NewRequest("GET", a.url(query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, b.addr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded predict on non-owner: status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("peer-rehydrated predict differs from owner's:\n owner %s\n peer  %s", want, body)
	}
	if n := a.srv.Pool().Stats().Profiles; n != 0 {
		t.Fatalf("peer ran %d profiling runs, want 0 (artifact came from the owner)", n)
	}
	if n := a.srv.Pool().Stats().DiskHits; n != 1 {
		t.Fatalf("peer disk hits = %d, want 1", n)
	}
	st := a.srv.remote.Stats()
	if st.Hits == 0 {
		t.Fatalf("remote tier never fetched from the owner: %+v", st)
	}
	if n := b.srv.artifactsServed.Load(); n == 0 {
		t.Fatal("owner served no raw artifacts")
	}
	// The owner's /metrics counts the peer's artifact fetches under
	// their own request key, the key their latency histogram uses.
	if n, served := b.srv.MetricsSnapshot().Requests["artifact_get"], b.srv.artifactsServed.Load(); n < served {
		t.Fatalf("owner counted %d artifact_get requests but served %d artifacts", n, served)
	}
}

// TestClusterOwnerDownFallsBackLocal: killing the owner must not fail
// a single request — the non-owner detects the dead peer and computes
// locally, counting the degradation.
func TestClusterOwnerDownFallsBackLocal(t *testing.T) {
	nodes := startFleet(t, 2, func(i int, cfg *Config) {
		cfg.ProxyTimeout = 2 * time.Second
	})
	a, b := nodes[0], nodes[1]
	bench := benchOwnedBy(t, b, true)
	if err := b.hs.Close(); err != nil {
		t.Fatal(err)
	}
	body := fetchBody(t, a.url("/v1/predict?bench="+bench))
	if body == "" {
		t.Fatal("empty predict body")
	}
	if n := a.srv.proxyFallback.Load(); n < 1 {
		t.Fatalf("proxy_fallback_local = %d, want >= 1", n)
	}
	if n := a.srv.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("fallback profiled %d workloads, want 1 (local compute)", n)
	}
}

// TestProxyLoopGuard is the regression for the single-hop rule: a
// request already carrying the forwarded header is served locally by
// a non-owner, never forwarded again.
func TestProxyLoopGuard(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	bench := benchOwnedBy(t, a, false) // a is NOT the owner
	req, err := http.NewRequest("GET", a.url("/v1/predict?bench="+bench), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, b.addr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request on non-owner: status %d: %s", resp.StatusCode, body)
	}
	if n := a.srv.proxied.Load(); n != 0 {
		t.Fatalf("non-owner re-forwarded %d forwarded requests: loop guard broken", n)
	}
	if n := a.srv.proxyReceived.Load(); n != 1 {
		t.Fatalf("proxy_received = %d, want 1", n)
	}
	// The loop guard implies local compute.
	if n := a.srv.Pool().Stats().Profiles; n != 1 {
		t.Fatalf("non-owner profiled %d workloads under the loop guard, want 1", n)
	}
}

// TestClusterConfigValidation pins the fleet misconfiguration
// rejections.
func TestClusterConfigValidation(t *testing.T) {
	if _, err := New(Config{ClusterPeers: []string{"a:1"}}); err == nil {
		t.Fatal("peers without self accepted")
	}
	if _, err := New(Config{ClusterSelf: "b:1", ClusterPeers: []string{"a:1"}}); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
	srv, err := New(Config{ClusterSelf: "a:1", ClusterPeers: []string{"a:1"}})
	if err != nil {
		t.Fatalf("single-member fleet rejected: %v", err)
	}
	if !srv.owned("anything") {
		t.Fatal("single-member fleet does not own every workload")
	}
}
