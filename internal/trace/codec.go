package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"repro/internal/isa"
)

// Binary codecs for the columnar stores: Trace, BytePlane and BitPlane
// serialize to a compact, deterministic little-endian stream and
// deserialize to bit-identical in-memory objects. The encoding is a
// pure function of the logical contents — no timestamps, no pointers,
// no map iteration — so two processes that profile the same workload
// write byte-identical streams, which is what lets the artifact store
// (internal/artifact) content-address them and lets CI assert
// determinism with a plain SHA-256 comparison.
//
// Layout (all integers little-endian):
//
//	Trace:      u64 n; u64 a, the number of loads and stores; the
//	            dictionary: u32 count m, m tuples of 14 bytes (PC i32,
//	            Target i32, Op u8, Class u8, Flags u8, Dst u8, Src1 u8,
//	            Src2 u8), u32 CRC-32C of the count and tuples; then per
//	            chunk: the id width w (u8: 1 narrow, 2 wide), the ID
//	            column (w bytes per id, the chunk's live length), the
//	            Addr column (u32, one per load or store, as the chunk's
//	            ids imply), and a u32 CRC-32C of the chunk's encoded
//	            bytes. m is at most MaxTuples, and a wide chunk needs
//	            m > NarrowTuples.
//	BytePlane:  u64 n, then per chunk: the live bytes + u32 CRC-32C.
//	BitPlane:   u64 n, then per chunk: the live u64 words + u32 CRC-32C.
//
// Derivable framing (chunk count, per-chunk lengths, Base) is not
// stored: it all follows from n, a, m and the fixed chunk geometry, so
// a reader can also bound the encoded size up front (every chunk narrow
// or every chunk wide) and reject a stream outside the bounds before
// allocating anything.

// ErrCorrupt is wrapped by every decode failure caused by damaged
// input (bad checksum, impossible length, truncation, out-of-range
// value). Callers that
// fall back to recomputation match it with errors.Is.
var ErrCorrupt = errors.New("trace: corrupt encoded stream")

// crcTable is the Castagnoli table shared by all three codecs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxDecodeLen bounds the entry count a decoder accepts. Real traces
// are millions of instructions; 2^40 is far beyond anything this
// repository can record while still leaving all derived arithmetic
// (chunk counts, per-chunk sizes) comfortably inside int64.
const maxDecodeLen = int64(1) << 40

// Encoded sizes of the trace header (n and a) and of one dictionary
// tuple.
const (
	traceHdrBytes  = 8 + 8
	staticEncBytes = 4 + 4 + 6
)

// chunkCount returns the number of chunks holding n entries.
func chunkCount(n int64) int64 {
	return (n + ChunkLen - 1) >> ChunkShift
}

// chunkLive returns the live length of chunk c of an n-entry store.
func chunkLive(n int64, c int64) int {
	live := n - c<<ChunkShift
	if live > ChunkLen {
		live = ChunkLen
	}
	return int(live)
}

// traceEncodedSize is the exact stream size of n instructions, wide of
// them in wide chunks and a of them loads or stores, over an m-entry
// dictionary.
func traceEncodedSize(n, wide, a, m int64) int64 {
	return traceHdrBytes + 4 + m*staticEncBytes + 4 + n + wide + 4*a + (1+4)*chunkCount(n)
}

// EncodedSize returns the exact number of bytes WriteTo will produce.
func (t *Trace) EncodedSize() int64 {
	var wide int64
	for i := range t.Chunks() {
		if t.chunks[i].Wide() {
			wide += int64(t.chunks[i].N)
		}
	}
	return traceEncodedSize(t.Len(), wide, t.mem, int64(len(t.Dictionary())))
}

// idWidth is the encoded width of an I id, in bytes.
func idWidth[I ID]() int { return int(unsafe.Sizeof(I(0))) }

// appendIDs appends the width byte and the ids of one chunk.
func appendIDs[I ID](enc []byte, ids []I) []byte {
	w := idWidth[I]()
	enc = append(enc, uint8(w))
	for _, v := range ids {
		enc = append(enc, uint8(v))
		if w == 2 {
			enc = append(enc, uint8(uint16(v)>>8))
		}
	}
	return enc
}

// mapIDs decodes a chunk's live ids from data and counts its loads and
// stores; static is the dictionary. It fails on an id beyond the
// dictionary.
func mapIDs[I ID](data []byte, static []Static, base int64, live int) ([]I, int, error) {
	w := idWidth[I]()
	ids := make([]I, live)
	for i := range ids {
		v := uint16(data[w*i])
		if w == 2 {
			v |= uint16(data[w*i+1]) << 8
		}
		if int(v) >= len(static) {
			return nil, 0, fmt.Errorf("%w: trace instruction %d references dictionary entry %d of %d", ErrCorrupt, base+int64(i), v, len(static))
		}
		ids[i] = I(v)
	}
	return ids, memCount(static, ids), nil
}

// WriteTo serializes the trace; it implements io.WriterTo. The stream
// is deterministic: equal traces encode to equal bytes.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	le := binary.LittleEndian
	dict := t.Dictionary()
	enc := le.AppendUint64(make([]byte, 0, traceHdrBytes+8+len(dict)*staticEncBytes), uint64(t.Len()))
	enc = le.AppendUint64(enc, uint64(t.mem))
	enc = le.AppendUint32(enc, uint32(len(dict)))
	for _, s := range dict {
		enc = le.AppendUint32(enc, uint32(s.PC))
		enc = le.AppendUint32(enc, uint32(s.Target))
		enc = append(enc, uint8(s.Op), uint8(s.Class), s.Flags, uint8(s.Dst), uint8(s.Src1), uint8(s.Src2))
	}
	enc = le.AppendUint32(enc, crc32.Checksum(enc[traceHdrBytes:], crcTable))
	if _, err := cw.Write(enc); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 0, 1+(2+4)*ChunkLen+4)
	for _, ck := range t.Chunks() {
		var enc []byte
		if ck.Wide() {
			enc = appendIDs(buf[:0], ck.ID16[:ck.N])
		} else {
			enc = appendIDs(buf[:0], ck.ID8[:ck.N])
		}
		for _, v := range ck.Addr {
			enc = le.AppendUint32(enc, v)
		}
		enc = le.AppendUint32(enc, crc32.Checksum(enc, crcTable))
		if _, err := cw.Write(enc); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// MapTrace decodes a stream produced by Trace.WriteTo out of bytes
// pinned in memory, typically a read-only file mapping. The returned
// trace is bit-identical to the one that was written, down to
// SizeBytes. The stream must lie within the sizes its header and
// dictionary count allow before any decoding, and every chunk is
// checked against the bytes left before its columns are allocated, so
// nothing is allocated ahead of the bytes really present; trailing
// bytes are rejected. Damaged input yields an error wrapping
// ErrCorrupt: a bad checksum or length, a dictionary of more than
// MaxTuples entries (more than a uint16 id can address), a dictionary
// tuple whose opcode, class, register or source count lies outside this
// binary's ISA, an id width other than 1 or 2, a wide chunk under a
// dictionary that fits a byte, an id beyond the dictionary — consumers
// index fixed-size tables with all of these — or chunks whose ids imply
// a different number of loads and stores than the header. The columns
// are decoded into exact-size slices (their in-stream alignment
// varies), so the trace shares no memory with data and the caller may
// release the mapping on return.
func MapTrace(data []byte) (*Trace, error) {
	le := binary.LittleEndian
	if len(data) < traceHdrBytes+4 {
		return nil, fmt.Errorf("%w: trace stream shorter than its header", ErrCorrupt)
	}
	n, a := int64(le.Uint64(data)), int64(le.Uint64(data[8:]))
	if n < 0 || n > maxDecodeLen || a < 0 || a > n {
		return nil, fmt.Errorf("%w: implausible trace length %d with %d loads and stores", ErrCorrupt, uint64(n), uint64(a))
	}
	m := int64(le.Uint32(data[traceHdrBytes:]))
	if m > MaxTuples {
		return nil, fmt.Errorf("%w: trace dictionary of %d entries, above the %d-entry cap", ErrCorrupt, m, MaxTuples)
	}
	if m > n {
		// Every entry of a built dictionary is used at least once.
		return nil, fmt.Errorf("%w: trace dictionary of %d entries for %d instructions", ErrCorrupt, m, n)
	}
	if lo, hi := traceEncodedSize(n, 0, a, m), traceEncodedSize(n, n, a, m); int64(len(data)) < lo || int64(len(data)) > hi {
		return nil, fmt.Errorf("%w: trace stream is %d bytes, header implies %d to %d", ErrCorrupt, len(data), lo, hi)
	}
	off := traceHdrBytes + 4 + int(m)*staticEncBytes
	if got, want := crc32.Checksum(data[traceHdrBytes:off], crcTable), le.Uint32(data[off:]); got != want {
		return nil, fmt.Errorf("%w: trace dictionary checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	t := &Trace{n: n, mem: a, static: make([]Static, m)}
	for i := range t.static {
		b := data[traceHdrBytes+4+i*staticEncBytes:]
		s := Static{
			PC: int32(le.Uint32(b)), Target: int32(le.Uint32(b[4:])),
			Op: isa.Op(b[8]), Class: isa.Class(b[9]), Flags: b[10],
			Dst: isa.Reg(b[11]), Src1: isa.Reg(b[12]), Src2: isa.Reg(b[13]),
		}
		if int(s.Op) >= isa.NumOps || int(s.Class) >= isa.NumClasses || s.Flags>>NumSrcShift > 2 ||
			s.Dst >= isa.NumRegs || s.Src1 >= isa.NumRegs || s.Src2 >= isa.NumRegs {
			return nil, fmt.Errorf("%w: trace dictionary entry %d out of range: %+v", ErrCorrupt, i, s)
		}
		t.static[i] = s
	}
	off += 4
	for c := int64(0); c < chunkCount(n); c++ {
		live := chunkLive(n, c)
		if off >= len(data) {
			return nil, fmt.Errorf("%w: trace chunk %d truncated", ErrCorrupt, c)
		}
		w := int(data[off])
		if w != 1 && w != 2 {
			return nil, fmt.Errorf("%w: trace chunk %d has id width %d", ErrCorrupt, c, w)
		}
		if w == 2 && m <= NarrowTuples {
			return nil, fmt.Errorf("%w: trace chunk %d is wide under a %d-entry dictionary", ErrCorrupt, c, m)
		}
		addrOff := off + 1 + w*live
		if addrOff > len(data) {
			return nil, fmt.Errorf("%w: trace chunk %d truncated", ErrCorrupt, c)
		}
		ck := Columns{Base: c << ChunkShift, N: live, Static: t.static}
		var k int
		var err error
		if w == 2 {
			ck.ID16, k, err = mapIDs[uint16](data[off+1:], t.static, ck.Base, live)
		} else {
			ck.ID8, k, err = mapIDs[uint8](data[off+1:], t.static, ck.Base, live)
		}
		if err != nil {
			return nil, err
		}
		a -= int64(k)
		end := addrOff + 4*k
		if end+4 > len(data) {
			return nil, fmt.Errorf("%w: trace chunk %d truncated", ErrCorrupt, c)
		}
		if got, want := crc32.Checksum(data[off:end], crcTable), le.Uint32(data[end:]); got != want {
			return nil, fmt.Errorf("%w: trace chunk %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, c, got, want)
		}
		ck.Addr = make([]uint32, k)
		for i := range ck.Addr {
			ck.Addr[i] = le.Uint32(data[addrOff+4*i:])
		}
		t.chunks = append(t.chunks, ck)
		off = end + 4
	}
	if a != 0 {
		return nil, fmt.Errorf("%w: trace ids and header disagree on the number of loads and stores (by %d)", ErrCorrupt, a)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the trace", ErrCorrupt, len(data)-off)
	}
	return t, nil
}

// MapBytePlane builds a BytePlane directly over an encoded stream
// pinned in memory: every chunk aliases data (the plane's payload is
// its live bytes verbatim), so data must not change while the plane is
// reachable. owner is the file mapping data lies in, which the plane
// keeps alive; it is nil when data is an ordinary heap buffer.
// Validation mirrors MapTrace: exact-size framing plus per-chunk
// CRC-32C, ErrCorrupt on any mismatch.
func MapBytePlane(data []byte, owner *Mapping) (*BytePlane, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: byte-plane stream shorter than its header", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint64(data))
	if n < 0 || n > maxDecodeLen {
		return nil, fmt.Errorf("%w: implausible byte-plane length %d", ErrCorrupt, uint64(n))
	}
	if want := 8 + n + 4*chunkCount(n); int64(len(data)) != want {
		return nil, fmt.Errorf("%w: byte-plane stream is %d bytes, header implies %d", ErrCorrupt, len(data), want)
	}
	p := &BytePlane{n: n, owner: owner}
	nc := chunkCount(n)
	p.chunks = make([][]uint8, 0, nc)
	off := int64(8)
	for c := int64(0); c < nc; c++ {
		live := int64(chunkLive(n, c))
		body := data[off : off+live : off+live]
		off += live
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(data[off:]); got != want {
			return nil, fmt.Errorf("%w: byte-plane chunk %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, c, got, want)
		}
		off += 4
		p.chunks = append(p.chunks, body)
	}
	return p, nil
}

// Mapped reports whether this plane's chunks alias a file mapping.
func (p *BytePlane) Mapped() bool { return p != nil && p.owner != nil }

// EncodedSize returns the exact number of bytes WriteTo will produce.
func (p *BytePlane) EncodedSize() int64 {
	n := p.Len()
	return 8 + n + 4*chunkCount(n)
}

// WriteTo serializes the plane; it implements io.WriterTo.
func (p *BytePlane) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(p.Len()))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	var tail [4]byte
	for c, bytes := range p.Chunks() {
		live := chunkLive(p.n, int64(c))
		body := bytes[:live]
		if _, err := cw.Write(body); err != nil {
			return cw.n, err
		}
		binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(body, crcTable))
		if _, err := cw.Write(tail[:]); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// EncodedSize returns the exact number of bytes WriteTo will produce.
func (p *BitPlane) EncodedSize() int64 {
	n := p.Len()
	return 8 + 8*bitChunkWordsLive(n) + 4*chunkCount(n)
}

// bitChunkWordsLive returns the total live word count across all
// chunks of an n-bit plane.
func bitChunkWordsLive(n int64) int64 {
	nc := chunkCount(n)
	if nc == 0 {
		return 0
	}
	full := (nc - 1) * bitChunkWords
	lastBits := n - (nc-1)<<ChunkShift
	return full + (lastBits+63)/64
}

// WriteTo serializes the plane; it implements io.WriterTo.
func (p *BitPlane) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(p.Len()))
	if _, err := cw.Write(hdr[:]); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 8*bitChunkWords+4)
	for c, words := range p.Chunks() {
		liveBits := int64(chunkLive(p.n, int64(c)))
		liveWords := (liveBits + 63) / 64
		enc := buf[:0]
		for _, wd := range words[:liveWords] {
			enc = binary.LittleEndian.AppendUint64(enc, wd)
		}
		crc := crc32.Checksum(enc, crcTable)
		enc = binary.LittleEndian.AppendUint32(enc, crc)
		if _, err := cw.Write(enc); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadBitPlaneFrom decodes a stream produced by BitPlane.WriteTo. It
// never allocates ahead of the stream: chunk storage is appended as
// each chunk's bytes arrive and pass their checksum, so a forged
// length header cannot cause an allocation larger than (a constant
// factor of) the bytes really present.
func ReadBitPlaneFrom(r io.Reader) (*BitPlane, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: reading bit-plane header: %v", ErrCorrupt, err)
	}
	n := int64(binary.LittleEndian.Uint64(hdr[:]))
	if n < 0 || n > maxDecodeLen {
		return nil, fmt.Errorf("%w: implausible bit-plane length %d", ErrCorrupt, uint64(n))
	}
	p := &BitPlane{n: n}
	nc := chunkCount(n)
	buf := make([]byte, 8*bitChunkWords+4)
	for c := int64(0); c < nc; c++ {
		liveBits := int64(chunkLive(n, c))
		liveWords := int((liveBits + 63) / 64)
		enc := buf[:8*liveWords+4]
		if _, err := io.ReadFull(r, enc); err != nil {
			return nil, fmt.Errorf("%w: bit-plane chunk %d truncated: %v", ErrCorrupt, c, err)
		}
		body, tail := enc[:len(enc)-4], enc[len(enc)-4:]
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
			return nil, fmt.Errorf("%w: bit-plane chunk %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, c, got, want)
		}
		words := make([]uint64, bitChunkWords)
		for i := 0; i < liveWords; i++ {
			words[i] = binary.LittleEndian.Uint64(body[8*i:])
		}
		p.chunks = append(p.chunks, words)
	}
	return p, nil
}

// countWriter tracks bytes written for the io.WriterTo contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}
