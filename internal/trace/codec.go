package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

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
//	Trace:      u64 n; the dictionary: u32 count m, m tuples of 14
//	            bytes (PC i32, Target i32, Op u8, Class u8, Flags u8,
//	            Dst u8, Src1 u8, Src2 u8), u32 CRC-32C of the count and
//	            tuples; then per chunk: the ID column then the EffAddr
//	            column (u32 each, truncated to the chunk's live
//	            length), followed by a u32 CRC-32C of the chunk's
//	            encoded bytes.
//	BytePlane:  u64 n, then per chunk: the live bytes + u32 CRC-32C.
//	BitPlane:   u64 n, then per chunk: the live u64 words + u32 CRC-32C.
//
// Derivable framing (chunk count, per-chunk lengths, Base) is not
// stored: it all follows from n (and m) and the fixed chunk geometry,
// so a reader can also predict the exact encoded size up front and
// reject a stream whose length disagrees before allocating anything.

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

// decodeLen reads and bounds a stream's u64 entry-count header. The
// decoders additionally never allocate ahead of the stream: chunk
// storage is appended as each chunk's bytes actually arrive and pass
// their checksum, so a forged header cannot cause an allocation larger
// than (a constant factor of) the bytes really present.
func decodeLen(r io.Reader, what string) (int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: reading %s header: %v", ErrCorrupt, what, err)
	}
	n := int64(binary.LittleEndian.Uint64(hdr[:]))
	if n < 0 || n > maxDecodeLen {
		return 0, fmt.Errorf("%w: implausible %s length %d", ErrCorrupt, what, uint64(n))
	}
	return n, nil
}

// Encoded sizes of one dictionary tuple and of one instruction (its
// dictionary id and word address).
const (
	staticEncBytes = 4 + 4 + 6
	traceInstBytes = 4 + 4
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

// traceEncodedSize is the exact stream size of n instructions over an
// m-entry dictionary.
func traceEncodedSize(n, m int64) int64 {
	return 8 + 4 + m*staticEncBytes + 4 + n*traceInstBytes + 4*chunkCount(n)
}

// EncodedSize returns the exact number of bytes WriteTo will produce.
func (t *Trace) EncodedSize() int64 {
	return traceEncodedSize(t.Len(), int64(len(t.Dictionary())))
}

// WriteTo serializes the trace; it implements io.WriterTo. The stream
// is deterministic: equal traces encode to equal bytes.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	le := binary.LittleEndian
	dict := t.Dictionary()
	enc := le.AppendUint64(make([]byte, 0, 16+len(dict)*staticEncBytes), uint64(t.Len()))
	enc = le.AppendUint32(enc, uint32(len(dict)))
	for _, s := range dict {
		enc = le.AppendUint32(enc, uint32(s.PC))
		enc = le.AppendUint32(enc, uint32(s.Target))
		enc = append(enc, uint8(s.Op), uint8(s.Class), s.Flags, uint8(s.Dst), uint8(s.Src1), uint8(s.Src2))
	}
	enc = le.AppendUint32(enc, crc32.Checksum(enc[8:], crcTable))
	if _, err := cw.Write(enc); err != nil {
		return cw.n, err
	}
	buf := make([]byte, 0, ChunkLen*traceInstBytes+4)
	for _, ck := range t.Chunks() {
		enc := buf[:0]
		for _, v := range ck.ID[:ck.N] {
			enc = le.AppendUint32(enc, v)
		}
		for _, v := range ck.EffAddr[:ck.N] {
			enc = le.AppendUint32(enc, v)
		}
		enc = le.AppendUint32(enc, crc32.Checksum(enc, crcTable))
		if _, err := cw.Write(enc); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadTraceFrom decodes a stream produced by Trace.WriteTo. The
// returned trace is bit-identical to the one that was written, down to
// SizeBytes. Damaged input yields an error wrapping ErrCorrupt: a bad
// checksum or length, a dictionary tuple whose opcode, class, register
// or source count lies outside this binary's ISA, or an id beyond the
// dictionary — consumers index fixed-size tables with all of these.
// The reader never allocates ahead of the bytes really present.
func ReadTraceFrom(r io.Reader) (*Trace, error) {
	le := binary.LittleEndian
	n, err := decodeLen(r, "trace")
	if err != nil {
		return nil, err
	}
	var mb [4]byte
	if _, err := io.ReadFull(r, mb[:]); err != nil {
		return nil, fmt.Errorf("%w: reading trace dictionary header: %v", ErrCorrupt, err)
	}
	m := int64(le.Uint32(mb[:]))
	if m > n {
		// Every entry of a built dictionary is used at least once.
		return nil, fmt.Errorf("%w: trace dictionary of %d entries for %d instructions", ErrCorrupt, m, n)
	}
	enc, err := io.ReadAll(io.LimitReader(r, m*staticEncBytes+4))
	if err != nil || int64(len(enc)) != m*staticEncBytes+4 {
		return nil, fmt.Errorf("%w: trace dictionary truncated", ErrCorrupt)
	}
	body, tail := enc[:len(enc)-4], enc[len(enc)-4:]
	if got, want := crc32.Update(crc32.Checksum(mb[:], crcTable), crcTable, body), le.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: trace dictionary checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, want)
	}
	t := &Trace{n: n, static: make([]Static, m)}
	for i := range t.static {
		b := body[i*staticEncBytes:]
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
	buf := make([]byte, ChunkLen*traceInstBytes+4)
	for c := int64(0); c < chunkCount(n); c++ {
		live := chunkLive(n, c)
		enc := buf[:live*traceInstBytes+4]
		if _, err := io.ReadFull(r, enc); err != nil {
			return nil, fmt.Errorf("%w: trace chunk %d truncated: %v", ErrCorrupt, c, err)
		}
		body, tail := enc[:len(enc)-4], enc[len(enc)-4:]
		if got, want := crc32.Checksum(body, crcTable), le.Uint32(tail); got != want {
			return nil, fmt.Errorf("%w: trace chunk %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, c, got, want)
		}
		ck := Columns{Base: c << ChunkShift, N: live, Static: t.static, ID: make([]uint32, live), EffAddr: make([]uint32, live)}
		for i := range ck.ID {
			if ck.ID[i] = le.Uint32(body[4*i:]); int64(ck.ID[i]) >= m {
				return nil, fmt.Errorf("%w: trace instruction %d references dictionary entry %d of %d", ErrCorrupt, ck.Base+int64(i), ck.ID[i], m)
			}
			ck.EffAddr[i] = le.Uint32(body[4*(live+i):])
		}
		t.chunks = append(t.chunks, ck)
	}
	return t, nil
}

// MapTrace decodes a trace stream pinned in memory, typically a
// read-only file mapping. The stream must be exactly the size its
// header and dictionary count imply — truncation and trailing bytes
// are rejected before any decoding — and then passes ReadTraceFrom's
// checks, so a corrupt stream yields ErrCorrupt here, never a trace
// that fails later. Both columns are decoded into exact-size slices
// (their in-stream alignment varies), so the trace shares no memory
// with data and the caller may release the mapping on return.
func MapTrace(data []byte) (*Trace, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: trace stream shorter than its header", ErrCorrupt)
	}
	n := int64(binary.LittleEndian.Uint64(data))
	if n < 0 || n > maxDecodeLen {
		return nil, fmt.Errorf("%w: implausible trace length %d", ErrCorrupt, uint64(n))
	}
	if want := traceEncodedSize(n, int64(binary.LittleEndian.Uint32(data[8:]))); int64(len(data)) != want {
		return nil, fmt.Errorf("%w: trace stream is %d bytes, header implies %d", ErrCorrupt, len(data), want)
	}
	return ReadTraceFrom(bytes.NewReader(data))
}

// MapBytePlane builds a BytePlane directly over an encoded stream
// pinned in memory: every chunk aliases the mapped bytes (the plane's
// payload is its live bytes verbatim). Validation mirrors MapTrace:
// exact-size framing plus per-chunk CRC-32C, ErrCorrupt on any
// mismatch.
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

// ReadBytePlaneFrom decodes a stream produced by BytePlane.WriteTo.
func ReadBytePlaneFrom(r io.Reader) (*BytePlane, error) {
	n, err := decodeLen(r, "byte-plane")
	if err != nil {
		return nil, err
	}
	p := &BytePlane{n: n}
	nc := chunkCount(n)
	var tail [4]byte
	for c := int64(0); c < nc; c++ {
		live := chunkLive(n, c)
		bytes := make([]uint8, ChunkLen)
		body := bytes[:live]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("%w: byte-plane chunk %d truncated: %v", ErrCorrupt, c, err)
		}
		if _, err := io.ReadFull(r, tail[:]); err != nil {
			return nil, fmt.Errorf("%w: byte-plane chunk %d truncated: %v", ErrCorrupt, c, err)
		}
		if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail[:]); got != want {
			return nil, fmt.Errorf("%w: byte-plane chunk %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, c, got, want)
		}
		p.chunks = append(p.chunks, bytes)
	}
	return p, nil
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

// ReadBitPlaneFrom decodes a stream produced by BitPlane.WriteTo.
func ReadBitPlaneFrom(r io.Reader) (*BitPlane, error) {
	n, err := decodeLen(r, "bit-plane")
	if err != nil {
		return nil, err
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
