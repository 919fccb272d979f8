package artifact

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/trace"
)

// The read path. Every load opens the artifact file through one
// opener, which returns its bytes from one of two sources:
//
//   - mapped: the file is mapped read-only (trace.OpenMapped). The
//     whole-file SHA-256 pass is skipped; trace.MapBytePlane aliases
//     mem planes straight out of the mapping, and traces and bit
//     planes are decoded from it without a read copy.
//   - in memory: where mapping fails or the platform has no mmap, the
//     file is read into memory and its whole-file SHA-256 is verified
//     before anything else looks at it.
//
// Everything after that is shared by both sources:
//
//   - framing is bounds-checked against the byte length, and each
//     codec requires its stream to be exactly the size its header
//     implies — truncation is caught at open, not by a page fault;
//   - the identity string must match, so a file can never be served
//     for the wrong key;
//   - scalar sections (profile, stats) verify the per-section CRC-32C
//     that format version 2 records;
//   - chunked sections (trace, classes, mispredicts) verify their
//     per-chunk CRC-32C inside the codec, and the trace its dictionary
//     CRC-32C and the range of every tuple and id.
//
// Every failure past the opener wraps ErrInvalid, whichever check
// caught it, so callers fall back to fresh computation rather than
// treating a damaged file as a disk fault.

// file is an opened artifact: its parsed sections and the mapping they
// lie in, nil when the bytes were read into memory. A decode that hands
// out results aliasing the mapping sets aliased.
type file struct {
	key     string
	secs    map[string]secView
	m       *trace.Mapping
	aliased bool
}

// open returns the framed artifact stored under key, the content key
// of identity, its bytes from the mapped source or, failing that, from
// readFile. A missing file is ErrNotFound, an unusable one wraps
// ErrInvalid, and any other error is a fault reading the disk.
func (s *Store) open(kind Kind, key, identity string) (*file, error) {
	if s == nil {
		return nil, ErrNotFound
	}
	var data []byte
	m, err := trace.OpenMapped(s.path(key))
	if err == nil {
		data = m.Bytes()
	} else if data, err = s.readFile(key); err != nil {
		return nil, err
	}
	return newFile(key, data, m, kind, identity)
}

// newFile parses the frame of the artifact image data, stored under
// key, which lies in mapping m (nil for in-memory bytes).
func newFile(key string, data []byte, m *trace.Mapping, kind Kind, identity string) (*file, error) {
	secs, err := parseFrame(data, kind, identity)
	if err != nil {
		_ = m.Close()
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	return &file{key: key, secs: secs, m: m}, nil
}

// readFile is open's in-memory byte source: the file is read whole and
// must match its SHA-256 trailer.
func (s *Store) readFile(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("artifact: reading %s: %w", key, err)
	}
	if err := verifyDigest(data); err != nil {
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	return data, nil
}

// finish ends a load of f whose decode returned err. The mapping is
// released unless the decoded result aliases it; a successful mapped
// load is counted, and so is a mapped mem-plane body.
func (s *Store) finish(f *file, err error) error {
	if err != nil || !f.aliased {
		_ = f.m.Close()
	}
	if err != nil {
		return fmt.Errorf("artifact %s: %w", f.key, err)
	}
	if f.m != nil {
		s.mappedLoads.Add(1)
		if f.aliased {
			s.mappedBodies.Add(1)
		}
	}
	return nil
}

// section returns a chunked section's payload; its codec verifies it.
func (f *file) section(name string) ([]byte, error) {
	sv, ok := f.secs[name]
	if !ok {
		return nil, fmt.Errorf("%w: no %s section", ErrInvalid, name)
	}
	return sv.payload, nil
}

// scalar returns a section that has no codec-internal checksums,
// verified against its section CRC.
func (f *file) scalar(name string) ([]byte, error) {
	b, err := f.section(name)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(b, castagnoli), f.secs[name].crc; got != want {
		return nil, fmt.Errorf("%w: section %q checksum mismatch (got %08x, want %08x)", ErrInvalid, name, got, want)
	}
	return b, nil
}

// codecErr marks a section codec's failure as an unusable file.
func codecErr(err error) error { return fmt.Errorf("%w: %w", ErrInvalid, err) }

// workload decodes a workload artifact. Both results are copies: the
// trace's two columns cannot alias the file, their alignment varies
// with the dictionary size.
func (f *file) workload() (*trace.Trace, *profile.Profile, error) {
	tb, err := f.section("trace")
	if err != nil {
		return nil, nil, err
	}
	pb, err := f.scalar("profile")
	if err != nil {
		return nil, nil, err
	}
	prof, err := decodeProfile(pb)
	if err != nil {
		return nil, nil, err
	}
	tr, err := trace.MapTrace(tb)
	if err != nil {
		return nil, nil, codecErr(err)
	}
	return tr, prof, nil
}

// memPlane decodes a mem-plane artifact: a body's plane, which
// aliases the file's bytes, and statistics, or an alias record's
// statistics, holder identity and plane length. The statistics are a
// copy.
func (f *file) memPlane() (plane *trace.BytePlane, st cache.Stats, holder string, n int64, err error) {
	sb, err := f.scalar("stats")
	if err != nil {
		return nil, cache.Stats{}, "", 0, err
	}
	if st, err = decodeCacheStats(sb); err != nil {
		return nil, cache.Stats{}, "", 0, err
	}
	if _, ok := f.secs["alias"]; ok {
		ab, err := f.scalar("alias")
		if err != nil {
			return nil, cache.Stats{}, "", 0, err
		}
		n, holder, err = decodeAlias(ab)
		if err != nil {
			return nil, cache.Stats{}, "", 0, err
		}
		return nil, st, holder, n, nil
	}
	cb, err := f.section("classes")
	if err != nil {
		return nil, cache.Stats{}, "", 0, err
	}
	if plane, err = trace.MapBytePlane(cb, f.m); err != nil {
		return nil, cache.Stats{}, "", 0, codecErr(err)
	}
	f.aliased = true
	return plane, st, "", 0, nil
}

// branchPlane decodes a branch-plane artifact into a copy: bit-plane
// chunks cannot alias the file (their word alignment alternates with
// the 2052-byte chunk stride).
func (f *file) branchPlane() (*trace.BitPlane, error) {
	mb, err := f.section("mispredicts")
	if err != nil {
		return nil, err
	}
	p, err := trace.ReadBitPlaneFrom(bytes.NewReader(mb))
	if err != nil {
		return nil, codecErr(err)
	}
	return p, nil
}
