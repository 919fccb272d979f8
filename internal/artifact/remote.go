// This file is the shared artifact tier of a modeld fleet: raw
// byte-level access to stored artifacts (the transport behind
// GET /v1/artifacts/{key}) and RemoteTier, whose store layer chains
// local disk → peer HTTP fetch → compute. A node admitting a workload
// it has never profiled first asks its ring peers for the finished
// artifact; a verified copy is installed into the local store
// (write-through) so the fetch happens at most once per key per node.
// Every failure degrades toward fresh computation, never toward bad
// data: a corrupt or mismatched peer payload is rejected by the same
// digest/identity checks the local store applies, and a peer that
// keeps failing is benched for a cooldown so a dead node costs one
// timeout, not one per request.
package artifact

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ValidKey reports whether key is a well-formed content key: exactly
// the lowercase-hex SHA-256 shape KeyOf produces. The HTTP handler and
// InstallRaw both gate on it, so a malicious key can never traverse
// out of the store directory.
func ValidKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ReadRaw returns the stored artifact file bytes under key, verbatim.
// This is the serving side of peer replication: the bytes already
// carry the format's magic, identity and digests, so the fetching node
// can verify them without trusting the peer. A missing key returns
// ErrNotFound; a malformed key is ErrInvalid.
func (s *Store) ReadRaw(key string) ([]byte, error) {
	if s == nil {
		return nil, ErrNotFound
	}
	if !ValidKey(key) {
		return nil, fmt.Errorf("%w: malformed content key %q", ErrInvalid, key)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("artifact: reading %s: %w", key, err)
	}
	return data, nil
}

// InstallRaw verifies data as a complete artifact whose identity
// hashes to key, then installs it atomically. The verification is
// exactly what makes peer replication safe against a lying or dying
// peer: the whole-file SHA-256 must match (rejects truncation and bit
// flips) and the embedded identity must hash to the requested key
// (rejects a valid artifact served under the wrong name). Section
// payloads are re-verified by their CRCs on every load, as always.
func (s *Store) InstallRaw(key string, data []byte) error {
	if s == nil {
		return nil
	}
	if !ValidKey(key) {
		return fmt.Errorf("%w: malformed content key %q", ErrInvalid, key)
	}
	if err := verifyDigest(data); err != nil {
		return err
	}
	_, identity, err := parseHeader(data[:len(data)-sha256.Size])
	if err != nil {
		return err
	}
	if KeyOf(identity) != key {
		return fmt.Errorf("%w: identity %q does not hash to key %s", ErrInvalid, identity, key)
	}
	return s.write(key, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// RemoteOptions configures a RemoteTier.
type RemoteOptions struct {
	// Peers are the other fleet members' base addresses ("host:port"
	// or full "http://host:port" URLs), excluding this node. Empty
	// peers make the tier's layer a transparent pass-through.
	Peers []string
	// Client performs peer fetches; nil means a client with
	// DefaultFetchTimeout.
	Client *http.Client
	// BenchAfter is the consecutive-failure count that benches a peer
	// (0 means 3; negative disables benching).
	BenchAfter int
	// BenchCooldown is how long a benched peer is skipped; ≤ 0 means
	// 15s.
	BenchCooldown time.Duration
}

// DefaultFetchTimeout bounds one peer artifact fetch when no client is
// supplied.
const DefaultFetchTimeout = 10 * time.Second

// maxFetchBytes caps one peer response body: far above any real
// artifact, far below a memory-exhaustion response.
const maxFetchBytes = 1 << 30

// RemoteStats is a snapshot of a RemoteTier's counters, shaped for the
// /metrics cluster section.
type RemoteStats struct {
	Fetches  int64 `json:"fetches"`        // load misses that consulted peers
	Hits     int64 `json:"hits"`           // artifacts installed from a peer
	Misses   int64 `json:"misses"`         // consultations no peer could serve
	Errors   int64 `json:"errors"`         // failed or corrupt peer responses
	Benched  int64 `json:"peers_benched"`  // times a peer entered cooldown
	Repaired int64 `json:"local_repaired"` // corrupt local artifacts replaced by a peer copy
}

// peerState tracks one peer's health for the bench/cooldown policy.
type peerState struct {
	consecutive int
	until       time.Time
}

// RemoteTier chains the local artifact store with the fleet's peers
// through its Layer: loads try local disk first, then each healthy
// peer's /v1/artifacts/{key}, installing a verified copy locally
// before re-loading; saves are local-only (peers pull on demand, so
// write amplification is bounded by actual reuse). All errors collapse
// to the store contract — a key nobody has is ErrNotFound, so callers
// compute fresh; an unusable local file that no peer can replace keeps
// its ErrInvalid. The tier is safe for concurrent use.
type RemoteTier struct {
	local      *Store
	peers      []string // normalized base URLs
	client     *http.Client
	benchAfter int
	cooldown   time.Duration

	mu    sync.Mutex
	state map[string]*peerState

	fetches  atomic.Int64
	hits     atomic.Int64
	misses   atomic.Int64
	errs     atomic.Int64
	benched  atomic.Int64
	repaired atomic.Int64
}

// NewRemoteTier prepares peer fetch into local, which must be non-nil:
// a node without a store has nowhere to install fetched artifacts.
// Install the tier with local.Use(t.Layer).
func NewRemoteTier(local *Store, opt RemoteOptions) (*RemoteTier, error) {
	if local == nil {
		return nil, fmt.Errorf("artifact: remote tier needs a local store")
	}
	t := &RemoteTier{
		local:      local,
		client:     opt.Client,
		benchAfter: opt.BenchAfter,
		cooldown:   opt.BenchCooldown,
		state:      make(map[string]*peerState),
	}
	if t.client == nil {
		t.client = &http.Client{Timeout: DefaultFetchTimeout}
	}
	if t.benchAfter == 0 {
		t.benchAfter = 3
	}
	if t.cooldown <= 0 {
		t.cooldown = 15 * time.Second
	}
	for _, p := range opt.Peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		t.peers = append(t.peers, strings.TrimRight(p, "/"))
	}
	return t, nil
}

// Stats snapshots the tier's counters.
func (t *RemoteTier) Stats() RemoteStats {
	return RemoteStats{
		Fetches:  t.fetches.Load(),
		Hits:     t.hits.Load(),
		Misses:   t.misses.Load(),
		Errors:   t.errs.Load(),
		Benched:  t.benched.Load(),
		Repaired: t.repaired.Load(),
	}
}

// benchedNow reports whether peer is inside a failure cooldown.
func (t *RemoteTier) benchedNow(peer string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.state[peer]
	return ok && time.Now().Before(st.until)
}

// markGood resets a peer's failure streak.
func (t *RemoteTier) markGood(peer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.state[peer]; ok {
		st.consecutive = 0
	}
}

// markFail records a failure; enough in a row bench the peer.
func (t *RemoteTier) markFail(peer string) {
	if t.benchAfter < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.state[peer]
	if !ok {
		st = &peerState{}
		t.state[peer] = st
	}
	st.consecutive++
	if st.consecutive >= t.benchAfter {
		st.consecutive = 0
		st.until = time.Now().Add(t.cooldown)
		t.benched.Add(1)
	}
}

// fetchFrom tries one peer for key. installed reports a verified
// local install; a nil error without install is a clean peer miss
// (404). Any transport failure, unexpected status, or payload that
// fails verification is an error the bench policy counts.
func (t *RemoteTier) fetchFrom(peer, key string) (installed bool, err error) {
	resp, err := t.client.Get(peer + "/v1/artifacts/" + key)
	if err != nil {
		return false, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("artifact: peer %s answered %s for %s", peer, resp.Status, key)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes))
	if err != nil {
		return false, err
	}
	if err := t.local.InstallRaw(key, data); err != nil {
		return false, fmt.Errorf("artifact: peer %s served unusable bytes for %s: %w", peer, key, err)
	}
	return true, nil
}

// fetch consults every healthy peer for key, installing the first
// verified copy. It returns whether a copy was installed.
func (t *RemoteTier) fetch(key string) bool {
	if len(t.peers) == 0 {
		return false
	}
	t.fetches.Add(1)
	for _, peer := range t.peers {
		if t.benchedNow(peer) {
			continue
		}
		installed, err := t.fetchFrom(peer, key)
		if err != nil {
			t.errs.Add(1)
			t.markFail(peer)
			continue
		}
		t.markGood(peer)
		if installed {
			t.hits.Add(1)
			return true
		}
	}
	t.misses.Add(1)
	return false
}

// fetchable reports local-load outcomes a peer copy could improve: a
// plain miss, or a local file that failed verification (the install
// atomically replaces it — fetch doubles as corruption repair).
func fetchable(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrInvalid)
}

// Layer is the tier's store layer. On a load it runs the local load,
// consults peers on a fetchable failure, and runs the local load again
// after an install; the original local error stands when no peer
// delivers. A save passes through: peers pull on demand.
func (t *RemoteTier) Layer(op Op, key string, do func() error) error {
	err := do()
	if op != OpLoad || !fetchable(err) || !t.fetch(key) {
		return err
	}
	if errors.Is(err, ErrInvalid) {
		t.repaired.Add(1)
	}
	return do()
}
