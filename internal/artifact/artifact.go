// Package artifact is the persistent, content-addressed store behind
// the "profile once" workflow: it serializes the expensive per-workload
// products — the chunked columnar trace, the machine-independent
// profile, and the per-component annotation planes — to versioned
// binary files so they survive process restarts. A CLI run, a modeld
// boot or a CI job that finds a valid artifact skips profiling (and
// annotation) entirely and is guaranteed bit-identical results: the
// codecs are deterministic, every file carries a format-version header
// and a SHA-256 trailer, and the file name *is* the SHA-256 of the
// artifact's identity (workload name, scaling parameters, ISA shape,
// format version), so a stale or mismatched entry can never be served
// — it simply lives at a different key.
//
// On-disk layout (all integers little-endian):
//
//	magic "RPAF" (4 bytes)
//	format version (u32)        — readers reject any mismatch
//	kind (u8)                   — workload / mem-plane / branch-plane
//	identity (u32 len + bytes)  — canonical string, key preimage
//	section count (u32)
//	per section: name (u32 len + bytes), payload (u64 len + bytes),
//	             payload CRC-32C (u32)
//	SHA-256 (32 bytes)          — over every preceding byte
//
// Section payloads reuse the trace codecs (per-chunk CRC-32C inside)
// and fixed-order int64 encodings for profiles and cache statistics.
// The per-section CRC (new in format version 2) is what lets the
// memory-mapped load path (see mapped.go) skip the whole-file SHA-256
// pass while still rejecting any payload corruption: chunked sections
// carry CRCs inside their codec, scalar sections are covered by the
// section CRC. Writes go to a temp file in the store directory
// followed by an atomic rename, so concurrent writers of one key are
// safe: both produce identical bytes (determinism) and the last
// rename wins.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/trace"
)

// FormatVersion is the on-disk format version. Bumping it changes
// every artifact identity (the version is part of the key preimage),
// so readers of the new version never even look at old files.
// Version 2 added the per-section CRC-32C that the mapped load path
// verifies in place of the whole-file digest; version 3 re-encodes the
// trace section as a static-tuple dictionary plus two 4-byte columns.
const FormatVersion = 3

// Ext is the artifact file extension.
const Ext = ".rpaf"

var magic = [4]byte{'R', 'P', 'A', 'F'}

// castagnoli is the CRC-32C polynomial table for section checksums,
// matching the trace codecs' per-chunk CRCs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind discriminates artifact payload types.
type Kind uint8

const (
	// KindWorkload holds a profiled workload: trace + profile.
	KindWorkload Kind = 1 + iota
	// KindMemPlane holds one hierarchy's memory-event annotation
	// plane and its end-of-run cache statistics.
	KindMemPlane
	// KindBranchPlane holds one predictor's mispredict bit plane.
	KindBranchPlane
)

// String names the kind for listings.
func (k Kind) String() string {
	switch k {
	case KindWorkload:
		return "workload"
	case KindMemPlane:
		return "mem-plane"
	case KindBranchPlane:
		return "branch-plane"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrNotFound is returned by loads whose key has no stored artifact.
// Any other load error means the file exists but cannot be trusted
// (truncated, corrupted, wrong version): callers fall back to fresh
// computation either way.
var ErrNotFound = errors.New("artifact: not found")

// ErrInvalid is wrapped by every load failure caused by an unusable
// file: bad magic, version mismatch, digest mismatch, truncation or a
// failing section codec.
var ErrInvalid = errors.New("artifact: invalid file")

// Store is a content-addressed artifact directory. The zero value is
// unusable; create with Open. A nil *Store is a valid "no store"
// tier: every load misses and every save is a no-op.
type Store struct {
	dir string
}

// Open prepares dir as an artifact store, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Probe verifies the store directory is writable by creating and
// removing a scratch file; /healthz reports the result.
func (s *Store) Probe() error {
	if s == nil {
		return errors.New("artifact: no store configured")
	}
	f, err := os.CreateTemp(s.dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("artifact: store not writable: %w", err)
	}
	name := f.Name()
	_ = f.Close()
	return os.Remove(name)
}

// WorkloadID identifies a profiled-workload artifact: everything the
// recorded trace and profile depend on.
type WorkloadID struct {
	Name        string // benchmark name (workloads registry)
	MinDynInsts int64  // ProfileProgramScaled dynamic-instruction floor
	// Code is the content fingerprint of the built program IR
	// (program.Fingerprint): editing a workload kernel moves its
	// artifacts to a new key, so a populated store can never serve a
	// trace recorded from older code. Callers that cannot build the
	// program leave it empty — such IDs only ever match other
	// code-blind IDs, never a fingerprinted artifact.
	Code string
}

// Identity returns the canonical key preimage. It embeds the format
// version, the program content fingerprint and the ISA shape
// (opcode/class/register counts): a binary with a different ISA, or a
// workload whose built IR changed, writes and reads different keys, so
// artifacts never cross either kind of change.
func (id WorkloadID) Identity() string {
	return fmt.Sprintf("v%d|workload|name=%s|dyninsts=%d|code=%s|isa=%d/%d/%d",
		FormatVersion, id.Name, id.MinDynInsts, id.Code, isa.NumOps, isa.NumClasses, isa.NumRegs)
}

// KeyOf returns the content key of an identity string: its SHA-256 in
// hex, which is also the artifact's file name (plus Ext).
func KeyOf(identity string) string {
	sum := sha256.Sum256([]byte(identity))
	return hex.EncodeToString(sum[:])
}

// WorkloadKey returns the content key a workload artifact lives under.
func (s *Store) WorkloadKey(id WorkloadID) string { return KeyOf(id.Identity()) }

// hierIdentity canonicalizes a hierarchy configuration for plane keys.
// Cosmetic cache names are excluded: planes depend only on geometry.
func hierIdentity(h cache.HierarchyConfig) string {
	c := func(c cache.Config) string {
		return fmt.Sprintf("%d:%d:%d", c.SizeBytes, c.Ways, c.BlockBytes)
	}
	return fmt.Sprintf("il1=%s|dl1=%s|l2=%s|itlb=%d|dtlb=%d|page=%d",
		c(h.IL1), c(h.DL1), c(h.L2), h.ITLBEntries, h.DTLBEntries, h.PageBytes)
}

// memPlaneIdentity returns the key preimage of one hierarchy's plane
// for the workload stored under workloadKey.
func memPlaneIdentity(workloadKey string, h cache.HierarchyConfig) string {
	return fmt.Sprintf("v%d|memplane|workload=%s|%s", FormatVersion, workloadKey, hierIdentity(h))
}

// branchPlaneIdentity returns the key preimage of one predictor's
// mispredict plane for the workload stored under workloadKey.
func branchPlaneIdentity(workloadKey, predictor string) string {
	return fmt.Sprintf("v%d|branchplane|workload=%s|pred=%s", FormatVersion, workloadKey, predictor)
}

// payload is a section's content: anything that knows its exact
// encoded size up front (the trace and plane codecs, raw scalar bytes).
type payload interface {
	io.WriterTo
	EncodedSize() int64
}

// raw is a payload that is already encoded.
type raw []byte

func (r raw) EncodedSize() int64 { return int64(len(r)) }

func (r raw) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(r)
	return int64(n), err
}

// section is one named payload inside an artifact file.
type section struct {
	name    string
	payload payload
}

// encode renders a complete artifact file image. The buffer is sized
// exactly from the section lengths and every payload encodes straight
// into it, so a save holds one file image, never a second copy of a
// section or a growth copy.
func encode(kind Kind, identity string, sections []section) ([]byte, error) {
	size := int64(len(magic) + 4 + 1 + 4 + len(identity) + 4 + sha256.Size)
	for _, sec := range sections {
		size += int64(4+len(sec.name)+8+4) + sec.payload.EncodedSize()
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	buf.Write(magic[:])
	le := binary.LittleEndian
	var u32 [4]byte
	var u64 [8]byte
	le.PutUint32(u32[:], FormatVersion)
	buf.Write(u32[:])
	buf.WriteByte(byte(kind))
	le.PutUint32(u32[:], uint32(len(identity)))
	buf.Write(u32[:])
	buf.WriteString(identity)
	le.PutUint32(u32[:], uint32(len(sections)))
	buf.Write(u32[:])
	for _, sec := range sections {
		le.PutUint32(u32[:], uint32(len(sec.name)))
		buf.Write(u32[:])
		buf.WriteString(sec.name)
		le.PutUint64(u64[:], uint64(sec.payload.EncodedSize()))
		buf.Write(u64[:])
		start := buf.Len()
		if _, err := sec.payload.WriteTo(buf); err != nil {
			return nil, fmt.Errorf("artifact: encoding section %q: %w", sec.name, err)
		}
		le.PutUint32(u32[:], crc32.Checksum(buf.Bytes()[start:], castagnoli))
		buf.Write(u32[:])
	}
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// secView is one parsed section: its payload plus the CRC-32C the
// writer recorded for it. Verification is split from parsing so the
// two load paths can check what their codecs do not already cover.
type secView struct {
	payload []byte
	crc     uint32
}

// verify checks the payload against the recorded section CRC.
func (sv secView) verify(name string) error {
	if got := crc32.Checksum(sv.payload, castagnoli); got != sv.crc {
		return fmt.Errorf("%w: section %q checksum mismatch (got %08x, want %08x)", ErrInvalid, name, got, sv.crc)
	}
	return nil
}

// parseFrame parses an artifact image's framing — magic, version,
// kind, identity, section table — without verifying any digest. Both
// load paths build on it: decode adds the whole-file SHA-256 plus
// every section CRC, the mapped path adds section CRCs only where a
// section's codec has no internal checksums.
func parseFrame(body []byte, wantKind Kind, wantIdentity string) (map[string]secView, error) {
	le := binary.LittleEndian
	if len(body) < len(magic)+4+1+4+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal header", ErrInvalid, len(body))
	}
	if !bytes.Equal(body[:4], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrInvalid, body[:4])
	}
	if v := le.Uint32(body[4:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, this binary reads %d", ErrInvalid, v, FormatVersion)
	}
	if k := Kind(body[8]); k != wantKind {
		return nil, fmt.Errorf("%w: kind %v, want %v", ErrInvalid, k, wantKind)
	}
	off := 9
	idLen := int(le.Uint32(body[off:]))
	off += 4
	if idLen < 0 || off+idLen > len(body) {
		return nil, fmt.Errorf("%w: identity length %d exceeds file", ErrInvalid, idLen)
	}
	id := string(body[off : off+idLen])
	off += idLen
	if id != wantIdentity {
		return nil, fmt.Errorf("%w: identity %q, want %q", ErrInvalid, id, wantIdentity)
	}
	if off+4 > len(body) {
		return nil, fmt.Errorf("%w: truncated section table", ErrInvalid)
	}
	nsec := int(le.Uint32(body[off:]))
	off += 4
	out := make(map[string]secView, nsec)
	for i := 0; i < nsec; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: truncated section %d header", ErrInvalid, i)
		}
		nameLen := int(le.Uint32(body[off:]))
		off += 4
		if nameLen < 0 || off+nameLen+8 > len(body) {
			return nil, fmt.Errorf("%w: section %d name overruns file", ErrInvalid, i)
		}
		name := string(body[off : off+nameLen])
		off += nameLen
		payLen := le.Uint64(body[off:])
		off += 8
		if payLen > uint64(len(body)-off) || uint64(len(body)-off)-payLen < 4 {
			return nil, fmt.Errorf("%w: section %q payload overruns file", ErrInvalid, name)
		}
		payload := body[off : off+int(payLen)]
		off += int(payLen)
		out[name] = secView{payload: payload, crc: le.Uint32(body[off:])}
		off += 4
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after sections", ErrInvalid, len(body)-off)
	}
	return out, nil
}

// decode parses and verifies a file image: magic, version, kind,
// identity, the whole-file digest and every section CRC must all
// match before any section payload is handed to a codec.
func decode(data []byte, wantKind Kind, wantIdentity string) (map[string][]byte, error) {
	if len(data) < len(magic)+4+1+4+4+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal header", ErrInvalid, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("%w: SHA-256 digest mismatch (truncated or corrupted)", ErrInvalid)
	}
	secs, err := parseFrame(body, wantKind, wantIdentity)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(secs))
	for name, sv := range secs {
		if err := sv.verify(name); err != nil {
			return nil, err
		}
		out[name] = sv.payload
	}
	return out, nil
}

// path returns the file path of a content key.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+Ext) }

// write atomically installs an encoded artifact under key: temp file
// in the store directory, then rename. Concurrent writers of one key
// race renames of byte-identical files, which is harmless.
func (s *Store) write(key string, data []byte) error {
	if s == nil {
		return nil
	}
	f, err := os.CreateTemp(s.dir, ".tmp-"+key[:16]+"-*")
	if err != nil {
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("artifact: installing %s: %w", key, err)
	}
	return nil
}

// read loads and verifies the artifact stored under identity.
func (s *Store) read(kind Kind, identity string) (map[string][]byte, error) {
	if s == nil {
		return nil, ErrNotFound
	}
	key := KeyOf(identity)
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("artifact: reading %s: %w", key, err)
	}
	secs, err := decode(data, kind, identity)
	if err != nil {
		return nil, fmt.Errorf("artifact %s: %w", key, err)
	}
	return secs, nil
}

// SaveWorkload stores a profiled workload (trace + profile) and
// returns its content key. The write is deterministic: two processes
// profiling the same workload install byte-identical files.
func (s *Store) SaveWorkload(id WorkloadID, tr *trace.Trace, prof *profile.Profile) (string, error) {
	if s == nil {
		return "", nil
	}
	identity := id.Identity()
	key := KeyOf(identity)
	data, err := encode(KindWorkload, identity, []section{
		{"trace", tr},
		{"profile", raw(encodeProfile(prof))},
	})
	if err != nil {
		return "", err
	}
	if err := s.write(key, data); err != nil {
		return "", err
	}
	return key, nil
}

// LoadWorkload rehydrates a profiled workload. A missing artifact
// returns ErrNotFound; an unusable one returns an error wrapping
// ErrInvalid — in both cases the caller profiles fresh.
//
// The load is mapped-first: on platforms with mmap the trace decodes
// straight out of a read-only file mapping (see mapped.go), skipping
// the read copy and the whole-file digest. Any mapped-path failure
// falls through to the portable decode path below, which determines
// the error the caller sees.
func (s *Store) LoadWorkload(id WorkloadID) (*trace.Trace, *profile.Profile, error) {
	if tr, prof, err := s.loadWorkloadMapped(id); err == nil {
		return tr, prof, nil
	}
	secs, err := s.read(KindWorkload, id.Identity())
	if err != nil {
		return nil, nil, err
	}
	tb, ok := secs["trace"]
	if !ok {
		return nil, nil, fmt.Errorf("%w: workload artifact has no trace section", ErrInvalid)
	}
	pb, ok := secs["profile"]
	if !ok {
		return nil, nil, fmt.Errorf("%w: workload artifact has no profile section", ErrInvalid)
	}
	tr, err := trace.ReadTraceFrom(bytes.NewReader(tb))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	prof, err := decodeProfile(pb)
	if err != nil {
		return nil, nil, err
	}
	return tr, prof, nil
}

// HasWorkload reports whether a workload artifact exists on disk (it
// may still fail verification on load).
func (s *Store) HasWorkload(id WorkloadID) bool {
	if s == nil {
		return false
	}
	_, err := os.Stat(s.path(s.WorkloadKey(id)))
	return err == nil
}

// SaveMemPlane stores one hierarchy's memory-event plane and its
// simulator-exact cache statistics under the owning workload's key.
func (s *Store) SaveMemPlane(workloadKey string, h cache.HierarchyConfig, classes *trace.BytePlane, st cache.Stats) error {
	if s == nil {
		return nil
	}
	identity := memPlaneIdentity(workloadKey, h)
	data, err := encode(KindMemPlane, identity, []section{
		{"classes", classes},
		{"stats", raw(encodeCacheStats(st))},
	})
	if err != nil {
		return err
	}
	return s.write(KeyOf(identity), data)
}

// LoadMemPlane rehydrates one hierarchy's plane and statistics,
// mapped-first like LoadWorkload.
func (s *Store) LoadMemPlane(workloadKey string, h cache.HierarchyConfig) (*trace.BytePlane, cache.Stats, error) {
	if plane, st, err := s.loadMemPlaneMapped(workloadKey, h); err == nil {
		return plane, st, nil
	}
	secs, err := s.read(KindMemPlane, memPlaneIdentity(workloadKey, h))
	if err != nil {
		return nil, cache.Stats{}, err
	}
	cb, ok := secs["classes"]
	if !ok {
		return nil, cache.Stats{}, fmt.Errorf("%w: mem-plane artifact has no classes section", ErrInvalid)
	}
	sb, ok := secs["stats"]
	if !ok {
		return nil, cache.Stats{}, fmt.Errorf("%w: mem-plane artifact has no stats section", ErrInvalid)
	}
	plane, err := trace.ReadBytePlaneFrom(bytes.NewReader(cb))
	if err != nil {
		return nil, cache.Stats{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	st, err := decodeCacheStats(sb)
	if err != nil {
		return nil, cache.Stats{}, err
	}
	return plane, st, nil
}

// SaveBranchPlane stores one predictor's mispredict plane under the
// owning workload's key.
func (s *Store) SaveBranchPlane(workloadKey, predictor string, p *trace.BitPlane) error {
	if s == nil {
		return nil
	}
	identity := branchPlaneIdentity(workloadKey, predictor)
	data, err := encode(KindBranchPlane, identity, []section{{"mispredicts", p}})
	if err != nil {
		return err
	}
	return s.write(KeyOf(identity), data)
}

// LoadBranchPlane rehydrates one predictor's mispredict plane,
// mapped-first like LoadWorkload.
func (s *Store) LoadBranchPlane(workloadKey, predictor string) (*trace.BitPlane, error) {
	if p, err := s.loadBranchPlaneMapped(workloadKey, predictor); err == nil {
		return p, nil
	}
	secs, err := s.read(KindBranchPlane, branchPlaneIdentity(workloadKey, predictor))
	if err != nil {
		return nil, err
	}
	mb, ok := secs["mispredicts"]
	if !ok {
		return nil, fmt.Errorf("%w: branch-plane artifact has no mispredicts section", ErrInvalid)
	}
	p, err := trace.ReadBitPlaneFrom(bytes.NewReader(mb))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return p, nil
}

// Info describes one stored artifact for listings (/v1/artifacts).
type Info struct {
	Key       string `json:"key"`
	Kind      string `json:"kind"`
	Identity  string `json:"identity"`
	SizeBytes int64  `json:"size_bytes"`
}

// List enumerates every readable artifact header in the store, sorted
// by kind then identity. Files that are not artifacts (foreign files,
// in-flight temp files) are skipped; a header that fails to parse is
// listed with kind "unreadable" so operators can see residue.
func (s *Store) List() ([]Info, error) {
	if s == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: listing store: %w", err)
	}
	var out []Info
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, Ext) || strings.HasPrefix(name, ".") {
			continue
		}
		info := Info{Key: strings.TrimSuffix(name, Ext)}
		if fi, err := ent.Info(); err == nil {
			info.SizeBytes = fi.Size()
		}
		kind, identity, err := readHeader(filepath.Join(s.dir, name))
		if err != nil {
			info.Kind = "unreadable"
		} else {
			info.Kind = kind.String()
			info.Identity = identity
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Identity != out[j].Identity {
			return out[i].Identity < out[j].Identity
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// readHeader parses just the fixed header and identity of an artifact
// file, without verifying the payload digest (List is advisory; loads
// verify).
func readHeader(path string) (Kind, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	var fixed [13]byte // magic + version + kind + identity length
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !bytes.Equal(fixed[:4], magic[:]) {
		return 0, "", fmt.Errorf("%w: bad magic", ErrInvalid)
	}
	if v := binary.LittleEndian.Uint32(fixed[4:]); v != FormatVersion {
		return 0, "", fmt.Errorf("%w: format version %d", ErrInvalid, v)
	}
	idLen := binary.LittleEndian.Uint32(fixed[9:])
	if idLen > 1<<16 {
		return 0, "", fmt.Errorf("%w: absurd identity length %d", ErrInvalid, idLen)
	}
	id := make([]byte, idLen)
	if _, err := io.ReadFull(f, id); err != nil {
		return 0, "", fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return Kind(fixed[8]), string(id), nil
}
