package trace

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/isa"
)

// Trace is the compact in-memory trace store: a chunked,
// dictionary-encoded form of the dynamic instruction stream. Everything
// a dynamic instruction shares with other executions of the same static
// instruction — PC, opcode, class, registers, flags (including the
// taken outcome) and target — is stored once, as a Static tuple in a
// per-trace dictionary of at most MaxTuples entries. Each dynamic
// instruction keeps only a dictionary id, and each load or store also a
// uint32 effective word address in a separate column. A chunk recorded
// while the dictionary fits a byte (at most NarrowTuples tuples) stores
// its ids as uint8, any later chunk as uint16: 1 or 2 bytes per
// instruction plus 4 per memory access, instead of 72 for a record
// with every field spelled out. Seq is implicit in position, NextPC
// follows from the taken flag and target, and the address of every
// other instruction is 0. Real workloads have a few hundred tuples, so
// the dictionary stays L1-resident while replay and detailed
// simulation stream the two columns.
//
// A Trace is built once through a Builder and is immutable (and safe
// for concurrent readers) afterwards. It has one access path: Chunks
// and EachChunk expose the raw columns chunk by chunk with zero
// allocation, EachChunk being the cancellable walk. Readers decode the
// fields they need from the id and address columns themselves.
type Trace struct {
	static []Static
	chunks []Columns
	n, mem int64 // instructions, loads and stores
}

// Chunk geometry: 1<<ChunkShift instructions per chunk. A chunk's id
// column is 16 or 32 KiB, comfortably inside L2, and only the last
// chunk is partial (stored at its live size).
const (
	ChunkShift = 14
	ChunkLen   = 1 << ChunkShift
	ChunkMask  = ChunkLen - 1
)

// Flag bits of the packed per-instruction flag byte. Bits 6–7 hold
// NumSrc (0..2).
const (
	FlagHasDst uint8 = 1 << iota
	FlagTaken
	FlagLoad
	FlagStore
	FlagBranch
	FlagJump
	FlagMem = FlagLoad | FlagStore // an entry in its chunk's Addr column
)

// NumSrcShift is the bit offset of the 2-bit source count within the
// flag byte.
const NumSrcShift = 6

// Static is one dictionary entry: the fields shared by every execution
// of one static instruction that goes the same way. A conditional
// branch contributes up to two entries (taken and not taken), every
// other instruction one: the ISA has no indirect jumps, so every target
// is static. PC and Target are static instruction
// indices and fit in 32 bits by construction (instruction memory is an
// in-memory Go slice).
type Static struct {
	PC     int32
	Target int32
	Op     isa.Op
	Class  isa.Class
	Flags  uint8
	Dst    isa.Reg
	Src1   isa.Reg
	Src2   isa.Reg
}

// Columns is the raw view of one chunk. Entries [0, N) are valid; Base
// is the dynamic sequence number (= trace index) of entry 0. The static
// fields of entry j are Static[id], where id is entry j of the chunk's
// id column and Static is the trace-wide dictionary shared by every
// chunk. The id column is ID8 in a narrow chunk and ID16 in a wide
// one; the other is nil. Batch readers dispatch once per chunk into one
// loop generic over ID; Tuple is the random-access read. Addr holds one
// entry per load or store, in order, so a reader walking the chunk
// keeps a running index.
type Columns struct {
	Base int64
	N    int

	Static []Static
	ID8    []uint8  // dictionary ids of a narrow chunk
	ID16   []uint16 // dictionary ids of a wide chunk
	Addr   []uint32 // effective word addresses of the loads and stores
}

// ID is the element type of an id column.
type ID interface{ uint8 | uint16 }

// NarrowTuples is the largest dictionary whose ids all fit a narrow
// (uint8) id column.
const NarrowTuples = 1 << 8

// Wide reports whether the chunk's ids are in ID16.
func (ck *Columns) Wide() bool { return ck.ID16 != nil }

// Tuple returns the dictionary tuple of entry j: the random-access read
// for readers that do not walk the chunk in order.
func (ck *Columns) Tuple(j int) *Static {
	if ck.Wide() {
		return &ck.Static[ck.ID16[j]]
	}
	return &ck.Static[ck.ID8[j]]
}

// memCount returns how many of ids are loads or stores.
func memCount[I ID](static []Static, ids []I) int {
	k := 0
	for _, id := range ids {
		if static[id].Flags&FlagMem != 0 {
			k++
		}
	}
	return k
}

// Len returns the number of recorded instructions. A nil Trace is
// empty.
func (t *Trace) Len() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// NumChunks returns the number of chunks.
func (t *Trace) NumChunks() int {
	if t == nil {
		return 0
	}
	return len(t.chunks)
}

// Chunks returns the chunk views. The returned slice and its columns
// must not be modified.
func (t *Trace) Chunks() []Columns {
	if t == nil {
		return nil
	}
	return t.chunks
}

// Dictionary returns the static tuples in id order (first appearance
// in the stream). The slice must not be modified.
func (t *Trace) Dictionary() []Static {
	if t == nil {
		return nil
	}
	return t.static
}

// EachChunk calls f on every chunk in order: the cancellable walk
// under the statistics, annotation and timing traversals. ctx is
// checked before each chunk and after the last (within one
// 16K-instruction chunk f runs uninterrupted); once it has ended,
// EachChunk returns ctx.Err() without calling f again. f must not
// modify the chunk.
func (t *Trace) EachChunk(ctx context.Context, f func(*Columns)) error {
	for i := range t.Chunks() {
		if err := ctx.Err(); err != nil {
			return err
		}
		f(&t.chunks[i])
	}
	return ctx.Err()
}

// SizeBytes returns the memory footprint: the dictionary plus the
// columns at their allocated capacity, one byte per narrow id and two
// per wide one. Built, decoded and mapped traces of equal contents
// report equal sizes.
func (t *Trace) SizeBytes() int64 {
	if t == nil {
		return 0
	}
	sz := int64(cap(t.static)) * int64(unsafe.Sizeof(Static{}))
	for i := range t.chunks {
		ck := &t.chunks[i]
		sz += int64(cap(ck.ID8)) + 2*int64(cap(ck.ID16)) + 4*int64(cap(ck.Addr))
	}
	return sz
}

// MaxTuples caps a trace's dictionary, so that every id fits in a wide
// (uint16) id column. Tuples are keyed by (PC, direction), so a program
// whose static instructions plus conditional branches stay within it
// can never overflow the dictionary.
const MaxTuples = 1 << 16

// ErrDictionaryFull is returned by Builder.Intern when a new tuple
// would take the dictionary past MaxTuples.
var ErrDictionaryFull = errors.New("trace: dictionary full")

// Builder accumulates a Trace chunk by chunk: appends never copy
// existing data (no doubling growth), so no sizing pre-pass is needed.
// Chunks open narrow. When Intern assigns the first id that does not
// fit a byte, the open chunk is widened in place, a copy of at most
// ChunkLen ids, and every chunk opened from then on is wide; a sealed
// chunk is never rewritten. So every chunk of a trace whose dictionary
// fits a byte is narrow.
//
// Recording is two calls. Intern maps a Static tuple to its dictionary
// id, assigning ids in first-appearance order so that equal streams
// encode to equal bytes; AppendID writes one instruction as its id,
// followed for a load or store by AppendAddr with its effective word
// address. A recorder that derives each tuple once and caches its id,
// as the functional simulator does per (PC, taken), records an
// instruction with one or two stores.
type Builder struct {
	static []Static          // the dictionary, in id order
	index  map[Static]uint16 // every interned tuple

	// The closed chunks, then the open one: its ids in cur8[:fill] while
	// it is narrow, when room is ChunkLen, or in cur16[:fill] once it is
	// wide, when room is 0 (fill == ChunkLen means a new chunk is due),
	// and its addresses in addr, which every chunk reuses and copies at
	// its exact length.
	chunks []Columns
	cur8   *[ChunkLen]uint8
	cur16  *[ChunkLen]uint16
	room   int
	fill   int
	addr   []uint32
	sealed func(Columns) // see OnSeal
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{fill: ChunkLen, addr: make([]uint32, 0, ChunkLen)} }

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int64 {
	if b.cur8 == nil && b.cur16 == nil {
		return 0
	}
	return int64(len(b.chunks))*ChunkLen + int64(b.fill)
}

// Intern returns s's dictionary id, adding s if it is new. It fails
// with ErrDictionaryFull if s is new and the dictionary already holds
// MaxTuples entries.
func (b *Builder) Intern(s Static) (uint16, error) {
	id, ok := b.index[s]
	if !ok {
		if len(b.static) == MaxTuples {
			return 0, fmt.Errorf("%w: %d tuples", ErrDictionaryFull, MaxTuples)
		}
		if b.index == nil {
			b.index = make(map[Static]uint16)
		}
		id = uint16(len(b.static))
		b.static = append(b.static, s)
		b.index[s] = id
		if id == NarrowTuples {
			b.widen()
		}
	}
	return id, nil
}

// AppendID appends one instruction: id is a dictionary id returned by
// Intern. Its narrow path is small enough to inline into a recorder's
// loop; a new chunk and a wide one take appendSlow.
func (b *Builder) AppendID(id uint16) {
	if b.fill >= b.room {
		b.appendSlow(id)
		return
	}
	b.cur8[b.fill] = uint8(id)
	b.fill++
}

// appendSlow is AppendID when the open chunk is full or wide.
func (b *Builder) appendSlow(id uint16) {
	if b.fill == ChunkLen {
		b.grow()
	}
	if b.cur8 != nil {
		b.cur8[b.fill] = uint8(id)
	} else {
		b.cur16[b.fill] = id
	}
	b.fill++
}

// AppendAddr records the effective word address of the load or store
// (a tuple with a FlagMem bit) that AppendID appended last.
func (b *Builder) AppendAddr(word uint32) { b.addr = append(b.addr, word) }

// OnSeal registers f to receive each chunk the builder closes from now
// on, its Static set to the dictionary prefix its ids can reference. f
// runs inside AppendID; the chunk and the prefix are never written
// again, so f may hand them to another goroutine. The open chunk, full
// or not, is never sealed: it becomes the last chunk of Trace().
func (b *Builder) OnSeal(f func(Columns)) { b.sealed = f }

// widen moves the open chunk's ids to a wide column, once the
// dictionary has outgrown a byte. A full open chunk stays narrow: it is
// sealed before the next id is appended, and grow opens wide chunks
// from now on.
func (b *Builder) widen() {
	if b.cur8 == nil || b.fill == ChunkLen {
		return
	}
	b.cur16 = new([ChunkLen]uint16)
	for i, id := range b.cur8[:b.fill] {
		b.cur16[i] = uint16(id)
	}
	b.cur8, b.room = nil, 0
}

// open returns the open chunk's columns up to fill, aliasing its
// arrays.
func (b *Builder) open() Columns {
	ck := Columns{Base: int64(len(b.chunks)) * ChunkLen, N: b.fill, Addr: b.addr}
	if b.cur8 != nil {
		ck.ID8 = b.cur8[:b.fill]
	} else {
		ck.ID16 = b.cur16[:b.fill]
	}
	return ck
}

// grow closes the open chunk, if any, and starts a new one.
func (b *Builder) grow() {
	if b.cur8 != nil || b.cur16 != nil {
		ck := b.open()
		ck.Static, ck.Addr = slices.Clip(b.static), exact(ck.Addr)
		b.chunks = append(b.chunks, ck)
		if b.sealed != nil {
			b.sealed(ck)
		}
	}
	if len(b.static) > NarrowTuples {
		b.cur8, b.cur16, b.room = nil, new([ChunkLen]uint16), 0
	} else {
		b.cur8, b.cur16, b.room = new([ChunkLen]uint8), nil, ChunkLen
	}
	b.fill, b.addr = 0, b.addr[:0]
}

// Trace returns the built trace, with the dictionary and the open
// chunk's columns copied at their live sizes, so that the trace does
// not keep the builder's spare capacity alive. Call it once appending
// is done: the trace shares the builder's closed chunks.
func (b *Builder) Trace() *Trace {
	t := &Trace{n: b.Len(), static: exact(b.static)}
	if b.cur8 != nil || b.cur16 != nil {
		ck := b.open()
		if ck.Wide() {
			ck.ID16 = exact(ck.ID16)
		} else {
			ck.ID8 = exact(ck.ID8)
		}
		ck.Addr = exact(ck.Addr)
		t.chunks = append(slices.Clip(b.chunks), ck)
	}
	for i := range t.chunks {
		t.chunks[i].Static = t.static
		t.mem += int64(len(t.chunks[i].Addr))
	}
	return t
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }
