package artifact

import (
	"bytes"
	"crypto/sha256"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/trace"
)

// Memory-mapped artifact rehydration: the store's loads try a mapped
// read path first. The artifact file is mapped read-only, framing is
// parsed in place, and the chunked payloads are handed to
// trace.MapBytePlane, which aliases the plane bytes straight out of
// the mapping, or decoded from it (trace.MapTrace, bit planes) without
// a read copy. The whole-file SHA-256 pass is skipped; integrity comes
// from the same checks at finer grain:
//
//   - framing is bounds-checked against the mapped length, and each
//     codec requires its stream to be exactly the size its header
//     implies — truncation is caught at open, not by a page fault;
//   - chunked sections (trace, classes, mispredicts) verify their
//     per-chunk CRC-32C inside the codec, and the trace its dictionary
//     CRC-32C and the range of every tuple and id;
//   - scalar sections (profile, stats) verify the per-section CRC-32C
//     that format version 2 records;
//   - the identity string must match, so a mapped file can never be
//     served for the wrong key.
//
// Any mapped-path failure — including platforms without mmap — falls
// back to the portable decode path, which re-reads the file under the
// full whole-file digest and produces the canonical ErrNotFound /
// ErrInvalid. Corrupt artifacts therefore surface to callers exactly
// as they did before this path existed, and callers' fall-back-to-
// fresh-computation behavior is unchanged.

// mappedLoads counts loads served by the mapped path since process
// start.
var mappedLoads atomic.Int64

// MappedLoadCount reports how many artifact loads have been served
// through a file mapping (tests and metrics pin warm paths on it).
func MappedLoadCount() int64 { return mappedLoads.Load() }

// readMapped maps the artifact stored under identity and parses its
// framing in place. On success the returned sections alias m's pages;
// the caller must either hand m to a mapped codec (which retains it)
// or Close it after copying what it needs.
func (s *Store) readMapped(kind Kind, identity string) (map[string]secView, *trace.Mapping, error) {
	if s == nil {
		return nil, nil, ErrNotFound
	}
	m, err := trace.OpenMapped(s.path(KeyOf(identity)))
	if err != nil {
		return nil, nil, err
	}
	data := m.Bytes()
	if len(data) < sha256.Size {
		_ = m.Close()
		return nil, nil, ErrInvalid
	}
	secs, err := parseFrame(data[:len(data)-sha256.Size], kind, identity)
	if err != nil {
		_ = m.Close()
		return nil, nil, err
	}
	return secs, m, nil
}

// scalarSection fetches a section that has no codec-internal
// checksums and verifies its section CRC.
func scalarSection(secs map[string]secView, name string) ([]byte, error) {
	sv, ok := secs[name]
	if !ok {
		return nil, ErrInvalid
	}
	if err := sv.verify(name); err != nil {
		return nil, err
	}
	return sv.payload, nil
}

// loadWorkloadMapped is LoadWorkload's mapped path. The trace and the
// profile are decoded straight out of the mapping (the trace's two
// 4-byte columns cannot alias it: their alignment varies with the
// dictionary size), and the mapping is released immediately.
func (s *Store) loadWorkloadMapped(id WorkloadID) (*trace.Trace, *profile.Profile, error) {
	secs, m, err := s.readMapped(KindWorkload, id.Identity())
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	tb, ok := secs["trace"]
	if !ok {
		return nil, nil, ErrInvalid
	}
	pb, err := scalarSection(secs, "profile")
	if err != nil {
		return nil, nil, err
	}
	prof, err := decodeProfile(pb)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.MapTrace(tb.payload)
	if err != nil {
		return nil, nil, err
	}
	mappedLoads.Add(1)
	return tr, prof, nil
}

// loadMemPlaneMapped is LoadMemPlane's zero-copy path. The returned
// plane aliases the mapping; the statistics are a copy.
func (s *Store) loadMemPlaneMapped(workloadKey string, h cache.HierarchyConfig) (*trace.BytePlane, cache.Stats, error) {
	secs, m, err := s.readMapped(KindMemPlane, memPlaneIdentity(workloadKey, h))
	if err != nil {
		return nil, cache.Stats{}, err
	}
	cb, ok := secs["classes"]
	if !ok {
		_ = m.Close()
		return nil, cache.Stats{}, ErrInvalid
	}
	sb, err := scalarSection(secs, "stats")
	if err != nil {
		_ = m.Close()
		return nil, cache.Stats{}, err
	}
	st, err := decodeCacheStats(sb)
	if err != nil {
		_ = m.Close()
		return nil, cache.Stats{}, err
	}
	plane, err := trace.MapBytePlane(cb.payload, m)
	if err != nil {
		_ = m.Close()
		return nil, cache.Stats{}, err
	}
	mappedLoads.Add(1)
	return plane, st, nil
}

// loadBranchPlaneMapped is LoadBranchPlane's mapped path. Bit-plane
// chunks cannot alias the stream (their word alignment alternates
// with the 2052-byte chunk stride), so the payload is decoded through
// the regular CRC-checking codec — the win here is skipping the
// whole-file digest — and the mapping is released immediately.
func (s *Store) loadBranchPlaneMapped(workloadKey, predictor string) (*trace.BitPlane, error) {
	secs, m, err := s.readMapped(KindBranchPlane, branchPlaneIdentity(workloadKey, predictor))
	if err != nil {
		return nil, err
	}
	defer m.Close()
	mb, ok := secs["mispredicts"]
	if !ok {
		return nil, ErrInvalid
	}
	p, err := trace.ReadBitPlaneFrom(bytes.NewReader(mb.payload))
	if err != nil {
		return nil, err
	}
	mappedLoads.Add(1)
	return p, nil
}
