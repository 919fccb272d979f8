package trace

import (
	"bytes"
	"math/bits"
)

// Annotation planes are immutable per-instruction side columns aligned
// with a Trace's chunk geometry: plane entry i annotates trace
// instruction i, and the data is chunked exactly like the hot columns
// (1<<ChunkShift entries per chunk) so a consumer walking the trace
// chunk by chunk indexes the matching plane chunk with the same j.
//
// Planes record *machine events* that are a pure function of (trace,
// machine component) — cache/TLB outcome classes of one hierarchy,
// mispredict flags of one predictor — computed once by an annotation
// pass and then replayed by timing-only simulations (see
// pipeline.SimulateAnnotatedBatch). Two encodings exist: BytePlane (one
// byte per instruction) and BitPlane (one bit per instruction).

// Memory-event class bits of a cache annotation byte. The low three
// bits describe the instruction fetch, the next three the data access
// (meaningful only for loads/stores). A zero byte is the common
// all-hit case. The "L2 miss" bits are qualified by the corresponding
// L1-miss bit: latency decode is
//
//	extra = walk·TLBMiss + (L1Miss ? (L2Miss ? l2miss : l2hit) : 0)
//
// evaluated independently for the I and D halves.
const (
	AnnITLBMiss uint8 = 1 << iota // ITLB walk on the fetch
	AnnIL1Miss                    // fetch missed L1-I
	AnnIL2Miss                    // ... and missed L2 too
	AnnDTLBMiss                   // DTLB walk on the data access
	AnnDL1Miss                    // data access missed L1-D
	AnnDL2Miss                    // ... and missed L2 too
)

// AnnDShift right-shifts a cache annotation byte so its data-side bits
// occupy the same positions as the instruction-side bits, letting both
// halves share one 8-entry latency table.
const AnnDShift = 3

// AnnSideMask masks one (I or D) half of a cache annotation byte after
// shifting.
const AnnSideMask = 0x7

// BytePlane is an immutable per-instruction byte column. Built once
// via BytePlaneBuilder, it is safe for concurrent readers.
type BytePlane struct {
	chunks [][]uint8
	n      int64

	// owner pins the memory mapping backing the chunk slices of a
	// mapped plane (see MapBytePlane); nil otherwise.
	owner *Mapping
}

// Len returns the number of annotated instructions.
func (p *BytePlane) Len() int64 {
	if p == nil {
		return 0
	}
	return p.n
}

// Chunks returns the per-chunk byte columns, aligned with
// Trace.Chunks(). The slices must not be modified.
func (p *BytePlane) Chunks() [][]uint8 {
	if p == nil {
		return nil
	}
	return p.chunks
}

// At returns the annotation byte of instruction i.
func (p *BytePlane) At(i int64) uint8 {
	if i < 0 || i >= p.Len() {
		panic("trace: BytePlane.At index out of range")
	}
	return p.chunks[i>>ChunkShift][i&ChunkMask]
}

// SizeBytes returns the plane's memory footprint (full chunk
// capacity).
func (p *BytePlane) SizeBytes() int64 {
	if p == nil {
		return 0
	}
	var sz int64
	for _, c := range p.chunks {
		sz += int64(cap(c))
	}
	return sz
}

// Equal reports whether two planes annotate the same number of
// instructions with identical bytes. Planes computed for different
// machine components frequently coincide (e.g. two L2 geometries large
// enough that the trace's misses are all cold), and equal planes drive
// a timing replay to identical results — callers canonicalize on this
// to share replays. A plane is equal to itself at once, and chunks the
// two planes share (see BytePlaneBuilder.AppendShared) are not read.
func (p *BytePlane) Equal(q *BytePlane) bool {
	if p == q {
		return true
	}
	if p.Len() != q.Len() {
		return false
	}
	for i, c := range p.Chunks() {
		qc := q.chunks[i]
		if &c[0] == &qc[0] {
			continue
		}
		nb := int(min64(p.n-int64(i)<<ChunkShift, ChunkLen))
		if !bytes.Equal(c[:nb], qc[:nb]) {
			return false
		}
	}
	return true
}

// Equal reports whether two bit planes are identical (see
// BytePlane.Equal).
func (p *BitPlane) Equal(q *BitPlane) bool {
	if p == q {
		return true
	}
	if p.Len() != q.Len() {
		return false
	}
	for i, ws := range p.Chunks() {
		qw := q.chunks[i]
		if &ws[0] == &qw[0] {
			continue
		}
		for k, w := range ws {
			if w != qw[k] {
				return false
			}
		}
	}
	return true
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// BytePlaneBuilder accumulates a BytePlane chunk by chunk; appends
// never copy existing data.
type BytePlaneBuilder struct {
	p BytePlane
}

// NewBytePlaneBuilder returns an empty builder.
func NewBytePlaneBuilder() *BytePlaneBuilder { return &BytePlaneBuilder{} }

// Append records the annotation byte of the next instruction.
func (b *BytePlaneBuilder) Append(v uint8) {
	j := int(b.p.n & ChunkMask)
	if j == 0 {
		b.p.chunks = append(b.p.chunks, make([]uint8, ChunkLen))
	}
	b.p.chunks[len(b.p.chunks)-1][j] = v
	b.p.n++
}

// AppendShared appends c, a chunk of ChunkLen bytes whose first n are
// the annotation bytes of the next n instructions, without copying it:
// every plane c is appended to aliases the one array, which must not
// change afterwards. The builder must hold whole chunks, and n must be
// in [1, ChunkLen].
func (b *BytePlaneBuilder) AppendShared(c []uint8, n int) {
	if b.p.n&ChunkMask != 0 || n < 1 || n > ChunkLen || len(c) != ChunkLen {
		panic("trace: BytePlaneBuilder.AppendShared off the chunk grid")
	}
	b.p.chunks = append(b.p.chunks, c)
	b.p.n += int64(n)
}

// Len returns the number of bytes appended so far.
func (b *BytePlaneBuilder) Len() int64 { return b.p.n }

// Plane returns the built plane. The builder and plane share storage;
// finish appending before publishing the plane to other goroutines.
func (b *BytePlaneBuilder) Plane() *BytePlane { return &b.p }

// bitChunkWords is the number of 64-bit words backing one chunk of a
// BitPlane.
const bitChunkWords = ChunkLen / 64

// BitPlane is an immutable per-instruction bit column (1 bit per
// instruction, chunk-aligned with the trace).
type BitPlane struct {
	chunks [][]uint64
	n      int64
}

// Len returns the number of annotated instructions.
func (p *BitPlane) Len() int64 {
	if p == nil {
		return 0
	}
	return p.n
}

// Chunks returns the per-chunk bit words, aligned with Trace.Chunks():
// instruction j of chunk c is bit j&63 of word j>>6.
func (p *BitPlane) Chunks() [][]uint64 {
	if p == nil {
		return nil
	}
	return p.chunks
}

// Get returns the bit of instruction i.
func (p *BitPlane) Get(i int64) bool {
	if i < 0 || i >= p.Len() {
		panic("trace: BitPlane.Get index out of range")
	}
	j := i & ChunkMask
	return p.chunks[i>>ChunkShift][j>>6]&(1<<uint(j&63)) != 0
}

// SizeBytes returns the plane's memory footprint (full chunk
// capacity).
func (p *BitPlane) SizeBytes() int64 {
	if p == nil {
		return 0
	}
	var sz int64
	for _, ws := range p.chunks {
		sz += int64(cap(ws)) * 8
	}
	return sz
}

// Count returns the number of set bits.
func (p *BitPlane) Count() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, ws := range p.chunks {
		for _, w := range ws {
			n += int64(bits.OnesCount64(w))
		}
	}
	return n
}

// BitPlaneBuilder accumulates a BitPlane in append order.
type BitPlaneBuilder struct {
	p BitPlane
}

// NewBitPlaneBuilder returns an empty builder.
func NewBitPlaneBuilder() *BitPlaneBuilder { return &BitPlaneBuilder{} }

// Append records the bit of the next instruction.
func (b *BitPlaneBuilder) Append(v bool) {
	j := b.p.n & ChunkMask
	if j == 0 {
		b.p.chunks = append(b.p.chunks, make([]uint64, bitChunkWords))
	}
	if v {
		b.p.chunks[len(b.p.chunks)-1][j>>6] |= 1 << uint(j&63)
	}
	b.p.n++
}

// AppendChunk appends n zero bits as one new chunk and returns its
// words for the caller to set: instruction j of the chunk is bit j&63
// of word j>>6. The builder must hold whole chunks, and n must be in
// [1, ChunkLen].
func (b *BitPlaneBuilder) AppendChunk(n int) []uint64 {
	if b.p.n&ChunkMask != 0 || n < 1 || n > ChunkLen {
		panic("trace: BitPlaneBuilder.AppendChunk off the chunk grid")
	}
	ws := make([]uint64, bitChunkWords)
	b.p.chunks = append(b.p.chunks, ws)
	b.p.n += int64(n)
	return ws
}

// Len returns the number of bits appended so far.
func (b *BitPlaneBuilder) Len() int64 { return b.p.n }

// Plane returns the built plane (shares storage with the builder).
func (b *BitPlaneBuilder) Plane() *BitPlane { return &b.p }
