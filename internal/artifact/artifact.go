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
// The sections of each kind:
//
//	workload:     "trace", "profile"
//	branch-plane: "mispredicts"
//	mem-plane:    body:  "classes" (the plane), "stats"
//	              alias: "alias" (u64 plane length, u32 len + the
//	                     identity of the body holding the plane),
//	                     "stats"
//
// Hierarchies whose planes are equal (common: an L2 the trace fits
// classifies every access alike at every size) share one mem-plane
// body. The first of them stores it, every other one an alias record
// with its own statistics, written after the body. A load follows one
// alias hop, never two, and requires the holder to be a body of the
// same workload of the recorded length, so a dangling, cyclic or
// mismatched alias is an unusable file like any other.
//
// Every load takes one path (see mapped.go): get the file's bytes —
// mapped read-only where the platform allows, else read into memory
// under the whole-file SHA-256 — then parse the frame, check the
// identity, verify the per-section CRC of each scalar section (new in
// format version 2) and hand the chunked sections to their codecs,
// which carry CRCs of their own. Writes stream the file, checksums
// included, through a bounded buffer into a temp file in the store
// directory followed by an atomic rename, so no save holds a file
// image and concurrent writers of one key are safe: both produce
// identical bytes (determinism) and the last rename wins.
package artifact

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/trace"
)

// FormatVersion is the on-disk format version. Bumping it changes
// every artifact identity (the version is part of the key preimage),
// so readers of the new version never even look at old files.
// Version 2 added the per-section CRC-32C that mapped loads verify in
// place of the whole-file digest; version 3 re-encodes the
// trace section as a static-tuple dictionary plus two 4-byte columns;
// version 4 stores addresses for loads and stores only, with their
// count in the trace header; version 5 narrows the id column to 2
// bytes, under a dictionary of at most trace.MaxTuples entries; version
// 6 stores the ids of every chunk recorded while the dictionary fits a
// byte in 1 byte each, behind a width byte per chunk; version 7 stores
// a mem plane shared by several hierarchies of a workload once, the
// others holding alias records to it.
const FormatVersion = 7

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
// failing section codec (whose trace.ErrCorrupt it wraps as well).
var ErrInvalid = errors.New("artifact: invalid file")

// Store is a content-addressed artifact directory. The zero value is
// unusable; create with Open. A nil *Store is a valid "no store"
// tier: every load misses and every save is a no-op.
type Store struct {
	dir    string
	layers []Layer // see Use; innermost first

	mappedLoads  atomic.Int64 // loads served through a file mapping
	mappedBodies atomic.Int64 // mem-plane bodies among them
}

// Op classifies the store's typed operations for layers. The values
// are distinct bits, so a set of operations is their union.
type Op uint8

const (
	// OpLoad covers LoadWorkload, LoadMemPlane(s) and LoadBranchPlane:
	// one operation per file read, so following an alias record to
	// its holder's body is two.
	OpLoad Op = 1 << iota
	// OpSave covers SaveWorkload, SaveMemPlane, SaveMemPlaneAlias and
	// SaveBranchPlane.
	OpSave
)

// Layer is the interposition point of artifact I/O policy (peer
// fetch, retry and circuit breaking, fault injection). It runs around
// one typed operation: op is its kind, key the content key of the
// artifact it reads or writes, and do the store's own operation,
// framing, decode and verification included. A layer may call do any
// number of times, or not at all; the error it returns is the
// operation's. A load whose layers return an error returns it with
// zero values. The contract is the store's: ErrNotFound means "compute
// fresh", any other load error marks an unusable artifact, and saves
// are best-effort write-through.
type Layer func(op Op, key string, do func() error) error

// Use installs layers around every typed load and save. The first
// layer given is innermost; a later Use stacks outside earlier ones.
// Call it before the store is shared: the layers are read without
// locking.
func (s *Store) Use(layers ...Layer) { s.layers = append(s.layers, layers...) }

// through runs do, one typed operation on key, under the store's
// layers. Key derivation, listing and raw byte access stay outside
// them.
func (s *Store) through(op Op, key string, do func() error) error {
	if s == nil {
		return do()
	}
	for _, l := range s.layers {
		inner := do
		do = func() error { return l(op, key, inner) }
	}
	return do()
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

// MappedLoadCount reports how many of this store's loads have been
// served through a file mapping (tests pin warm paths on it).
func (s *Store) MappedLoadCount() int64 {
	if s == nil {
		return 0
	}
	return s.mappedLoads.Load()
}

// MappedBodyCount reports how many mem-plane bodies this store's loads
// have mapped. A batch of loads (LoadMemPlanes) maps each body once,
// however many alias records name it.
func (s *Store) MappedBodyCount() int64 {
	if s == nil {
		return 0
	}
	return s.mappedBodies.Load()
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
	MinDynInsts int64  // ProfileProgramScaledCtx dynamic-instruction floor
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
	return memPlanePrefix(workloadKey) + hierIdentity(h)
}

// memPlanePrefix is the part of a mem-plane identity shared by every
// hierarchy of the workload stored under workloadKey.
func memPlanePrefix(workloadKey string) string {
	return fmt.Sprintf("v%d|memplane|workload=%s|", FormatVersion, workloadKey)
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

// encodeTo streams a complete artifact file to w: header, sections
// with their CRC-32C, then the SHA-256 of everything before it. Every
// payload encodes straight into w through a frameWriter, which folds
// the bytes into both checksums on the way, so a save never holds the
// file image (or a section of it) in memory.
func encodeTo(w io.Writer, kind Kind, identity string, sections []section) error {
	fw := &frameWriter{w: w, sum: sha256.New()}
	le := binary.LittleEndian
	var hdr [headerBytes]byte
	copy(hdr[:], magic[:])
	le.PutUint32(hdr[4:], FormatVersion)
	hdr[8] = byte(kind)
	le.PutUint32(hdr[9:], uint32(len(identity)))
	fw.Write(hdr[:])
	io.WriteString(fw, identity)
	fw.u32(uint32(len(sections)))
	for _, sec := range sections {
		fw.u32(uint32(len(sec.name)))
		io.WriteString(fw, sec.name)
		var u64 [8]byte
		le.PutUint64(u64[:], uint64(sec.payload.EncodedSize()))
		fw.Write(u64[:])
		fw.crc = 0
		if _, err := sec.payload.WriteTo(fw); err != nil && fw.err == nil {
			fw.err = fmt.Errorf("artifact: encoding section %q: %w", sec.name, err)
		}
		fw.u32(fw.crc)
	}
	if fw.err != nil {
		return fw.err
	}
	_, err := w.Write(fw.sum.Sum(nil))
	return err
}

// frameWriter passes an artifact's bytes to w while hashing all of
// them into sum and the current section's into crc. It latches the
// first write error and drops everything after it.
type frameWriter struct {
	w   io.Writer
	sum hash.Hash
	crc uint32
	err error
}

func (fw *frameWriter) Write(b []byte) (int, error) {
	if fw.err != nil {
		return 0, fw.err
	}
	fw.sum.Write(b)
	fw.crc = crc32.Update(fw.crc, castagnoli, b)
	if _, fw.err = fw.w.Write(b); fw.err != nil {
		return 0, fw.err
	}
	return len(b), nil
}

// u32 writes v little-endian.
func (fw *frameWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	fw.Write(b[:])
}

// headerBytes is the size of an artifact's fixed header: magic,
// format version, kind and identity length.
const headerBytes = len(magic) + 4 + 1 + 4

// maxIdentityLen bounds the identity length a header may declare.
const maxIdentityLen = 1 << 16

// parseHeader extracts the kind and identity string from the start of
// an artifact image without verifying anything behind them.
func parseHeader(data []byte) (Kind, string, error) {
	le := binary.LittleEndian
	if len(data) < headerBytes {
		return 0, "", fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrInvalid, len(data))
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return 0, "", fmt.Errorf("%w: bad magic %q", ErrInvalid, data[:4])
	}
	if v := le.Uint32(data[4:]); v != FormatVersion {
		return 0, "", fmt.Errorf("%w: format version %d, this binary reads %d", ErrInvalid, v, FormatVersion)
	}
	idLen := int(le.Uint32(data[9:]))
	if idLen > maxIdentityLen || headerBytes+idLen > len(data) {
		return 0, "", fmt.Errorf("%w: identity length %d overruns file", ErrInvalid, idLen)
	}
	return Kind(data[8]), string(data[headerBytes : headerBytes+idLen]), nil
}

// verifyDigest checks an artifact image against its SHA-256 trailer.
func verifyDigest(data []byte) error {
	if len(data) < headerBytes+sha256.Size {
		return fmt.Errorf("%w: %d bytes is shorter than any artifact", ErrInvalid, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return fmt.Errorf("%w: SHA-256 digest mismatch (truncated or corrupted)", ErrInvalid)
	}
	return nil
}

// secView is one parsed section: its payload plus the CRC-32C the
// writer recorded for it.
type secView struct {
	payload []byte
	crc     uint32
}

// parseFrame parses an artifact image's framing — header, kind,
// identity, section table — up to its SHA-256 trailer, which it does
// not verify.
func parseFrame(data []byte, wantKind Kind, wantIdentity string) (map[string]secView, error) {
	le := binary.LittleEndian
	if len(data) < headerBytes+4+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal header", ErrInvalid, len(data))
	}
	body := data[:len(data)-sha256.Size]
	kind, id, err := parseHeader(body)
	if err != nil {
		return nil, err
	}
	if kind != wantKind {
		return nil, fmt.Errorf("%w: kind %v, want %v", ErrInvalid, kind, wantKind)
	}
	if id != wantIdentity {
		return nil, fmt.Errorf("%w: identity %q, want %q", ErrInvalid, id, wantIdentity)
	}
	off := headerBytes + len(id)
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

// path returns the file path of a content key.
func (s *Store) path(key string) string { return filepath.Join(s.dir, key+Ext) }

// writeBufBytes bounds the buffer between an artifact's encoders and
// its file.
const writeBufBytes = 32 << 10

// write atomically installs the artifact that fill streams under key:
// temp file in the store directory, written through a bounded buffer,
// then rename. Concurrent writers of one key race renames of
// byte-identical files, which is harmless.
func (s *Store) write(key string, fill func(io.Writer) error) error {
	if s == nil {
		return nil
	}
	f, err := os.CreateTemp(s.dir, ".tmp-"+key[:16]+"-*")
	if err != nil {
		return fmt.Errorf("artifact: writing %s: %w", key, err)
	}
	tmp := f.Name()
	bw := bufio.NewWriterSize(f, writeBufBytes)
	if err := cmp.Or(fill(bw), bw.Flush()); err != nil {
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

// SaveWorkload stores a profiled workload (trace + profile) and
// returns its content key. The write is deterministic: two processes
// profiling the same workload install byte-identical files.
func (s *Store) SaveWorkload(id WorkloadID, tr *trace.Trace, prof *profile.Profile) (string, error) {
	if s == nil {
		return "", nil
	}
	key, err := s.save(KindWorkload, id.Identity(), []section{
		{"trace", tr},
		{"profile", raw(encodeProfile(prof))},
	})
	if err != nil {
		return "", err
	}
	return key, nil
}

// save encodes an artifact of kind and identity and installs it under
// its content key, which it returns, through the store's layers.
func (s *Store) save(kind Kind, identity string, sections []section) (string, error) {
	key := KeyOf(identity)
	return key, s.through(OpSave, key, func() error {
		return s.write(key, func(w io.Writer) error { return encodeTo(w, kind, identity, sections) })
	})
}

// load opens the artifact of kind and identity through the store's
// layers and hands it to decode, which marks the file aliased when its
// results keep referencing the file mapping (see finish).
func (s *Store) load(kind Kind, identity string, decode func(*file) error) error {
	key := KeyOf(identity)
	return s.through(OpLoad, key, func() error {
		f, err := s.open(kind, key, identity)
		if err != nil {
			return err
		}
		return s.finish(f, decode(f))
	})
}

// LoadWorkload rehydrates a profiled workload. A missing artifact
// returns ErrNotFound; an unusable one returns an error wrapping
// ErrInvalid — in both cases the caller profiles fresh.
func (s *Store) LoadWorkload(id WorkloadID) (tr *trace.Trace, prof *profile.Profile, err error) {
	if err = s.load(KindWorkload, id.Identity(), func(f *file) (err error) {
		tr, prof, err = f.workload()
		return err
	}); err != nil {
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
// simulator-exact cache statistics under the owning workload's key: a
// mem-plane body.
func (s *Store) SaveMemPlane(workloadKey string, h cache.HierarchyConfig, classes *trace.BytePlane, st cache.Stats) error {
	if s == nil {
		return nil
	}
	_, err := s.save(KindMemPlane, memPlaneIdentity(workloadKey, h), []section{
		{"classes", classes},
		{"stats", raw(encodeCacheStats(st))},
	})
	return err
}

// SaveMemPlaneAlias stores hierarchy h's cache statistics with an
// alias record in place of its plane: h's plane, n bytes long, is the
// one in the body saved for holder in the same workload. Save the
// holder's body first; a load of h follows the alias to it.
func (s *Store) SaveMemPlaneAlias(workloadKey string, h, holder cache.HierarchyConfig, n int64, st cache.Stats) error {
	if s == nil {
		return nil
	}
	_, err := s.save(KindMemPlane, memPlaneIdentity(workloadKey, h), []section{
		{"alias", raw(encodeAlias(n, memPlaneIdentity(workloadKey, holder)))},
		{"stats", raw(encodeCacheStats(st))},
	})
	return err
}

// LoadMemPlane rehydrates one hierarchy's plane and statistics,
// following an alias record to its holder's body (see LoadMemPlanes).
// A mapped plane aliases the file mapping.
func (s *Store) LoadMemPlane(workloadKey string, h cache.HierarchyConfig) (*trace.BytePlane, cache.Stats, error) {
	r := s.LoadMemPlanes(workloadKey, []cache.HierarchyConfig{h})[0]
	return r.Plane, r.Stats, r.Err
}

// LoadedMemPlane is one hierarchy's outcome of LoadMemPlanes: its
// plane and statistics, or the error of its load.
type LoadedMemPlane struct {
	Plane *trace.BytePlane
	Stats cache.Stats
	Err   error
}

// LoadMemPlanes rehydrates the planes and statistics of the
// hierarchies hs of one workload, indexed like hs. A hierarchy stored
// as an alias record takes its plane from the holder's body: the load
// follows exactly one hop, and the holder must be a mem-plane body of
// the same workload whose plane has the length the alias records, or
// the load wraps ErrInvalid (ErrNotFound when the holder is missing).
// The batch opens each body once: every hierarchy whose record is, or
// aliases, one body gets the same *trace.BytePlane.
func (s *Store) LoadMemPlanes(workloadKey string, hs []cache.HierarchyConfig) []LoadedMemPlane {
	out := make([]LoadedMemPlane, len(hs))
	bodies := make(map[string]LoadedMemPlane) // identity -> loaded body
	for i, h := range hs {
		id := memPlaneIdentity(workloadKey, h)
		if b, ok := bodies[id]; ok {
			out[i] = b
			continue
		}
		r, holder, n := s.loadMemRecord(id)
		if holder == "" { // a body, or a failed load
			bodies[id] = r
			out[i] = r
			continue
		}
		b, ok := bodies[holder]
		if !ok {
			b = s.loadHolder(workloadKey, holder)
			bodies[holder] = b
		}
		if b.Err == nil && b.Plane.Len() != n {
			b.Err = fmt.Errorf("%w: alias of %d instructions, holder plane has %d", ErrInvalid, n, b.Plane.Len())
		}
		if b.Err != nil {
			r.Err = fmt.Errorf("artifact %s: alias holder: %w", KeyOf(id), b.Err)
		} else {
			r.Plane = b.Plane
		}
		out[i] = r
	}
	return out
}

// loadMemRecord loads the mem-plane record of identity: a body's plane
// and statistics, or an alias's statistics, its holder's identity and
// the plane length it records.
func (s *Store) loadMemRecord(identity string) (r LoadedMemPlane, holder string, n int64) {
	r.Err = s.load(KindMemPlane, identity, func(f *file) (err error) {
		r.Plane, r.Stats, holder, n, err = f.memPlane()
		return err
	})
	if r.Err != nil {
		return LoadedMemPlane{Err: r.Err}, "", 0
	}
	return r, holder, n
}

// loadHolder loads the body an alias of workloadKey names by its
// identity holder, which must be a mem-plane body of that workload.
func (s *Store) loadHolder(workloadKey, holder string) LoadedMemPlane {
	if !strings.HasPrefix(holder, memPlanePrefix(workloadKey)) {
		return LoadedMemPlane{Err: fmt.Errorf("%w: alias holder %q is not a mem plane of this workload", ErrInvalid, holder)}
	}
	b, next, _ := s.loadMemRecord(holder)
	if next != "" {
		return LoadedMemPlane{Err: fmt.Errorf("artifact %s: %w: alias holder is itself an alias", KeyOf(holder), ErrInvalid)}
	}
	return b
}

// SaveBranchPlane stores one predictor's mispredict plane under the
// owning workload's key.
func (s *Store) SaveBranchPlane(workloadKey, predictor string, p *trace.BitPlane) error {
	if s == nil {
		return nil
	}
	_, err := s.save(KindBranchPlane, branchPlaneIdentity(workloadKey, predictor), []section{{"mispredicts", p}})
	return err
}

// LoadBranchPlane rehydrates one predictor's mispredict plane.
func (s *Store) LoadBranchPlane(workloadKey, predictor string) (p *trace.BitPlane, err error) {
	if err = s.load(KindBranchPlane, branchPlaneIdentity(workloadKey, predictor), func(f *file) (err error) {
		p, err = f.branchPlane()
		return err
	}); err != nil {
		return nil, err
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
		// Only the header is read: List is advisory; loads verify. A
		// failed read leaves the header short, listed as unreadable.
		info.Kind = "unreadable"
		if f, err := os.Open(filepath.Join(s.dir, name)); err == nil {
			head, _ := io.ReadAll(io.LimitReader(f, int64(headerBytes+maxIdentityLen)))
			_ = f.Close()
			if kind, identity, err := parseHeader(head); err == nil {
				info.Kind, info.Identity = kind.String(), identity
			}
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
