package trace

import (
	"context"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/isa"
)

// Trace is the compact in-memory trace store: a chunked,
// dictionary-encoded form of the dynamic instruction stream. Everything
// a dynamic instruction shares with other executions of the same static
// instruction — PC, opcode, class, registers, flags (including the
// taken outcome) and target — is stored once, as a Static tuple in a
// per-trace dictionary. Each dynamic instruction keeps only a uint32
// dictionary id and a uint32 effective word address: 8 bytes per
// instruction instead of 72 for []DynInst. Seq is implicit in position
// and NextPC follows from the taken flag and target. Real workloads
// have a few hundred tuples, so the dictionary stays L1-resident while
// replay and detailed simulation stream the two columns.
//
// A Trace is built once through a Builder and is immutable (and safe
// for concurrent readers) afterwards. Three access paths exist:
//
//   - Replay streams reconstructed *DynInst records to a Consumer —
//     the compatibility path every existing collector uses.
//   - Cursor/Columns iterate chunk by chunk with zero allocation,
//     exposing the raw columns for batch consumers.
//   - At / Materialize reconstruct individual records or the whole
//     legacy slice (the seedref differential-test adapter).
type Trace struct {
	static []Static
	chunks []Columns
	n      int64
}

// Chunk geometry: 1<<ChunkShift instructions per chunk. Random access
// is two shifts; a chunk's two columns total 128 KiB, comfortably
// inside L2, and only the last chunk is partial (stored at its live
// size).
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
)

// NumSrcShift is the bit offset of the 2-bit source count within the
// flag byte.
const NumSrcShift = 6

// Static is one dictionary entry: the fields shared by every execution
// of one static instruction that goes the same way. A conditional
// branch contributes up to two entries (taken and not taken), an
// indirect jump one per target. PC and Target are static instruction
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
// fields of entry j are Static[ID[j]], where Static is the trace-wide
// dictionary shared by every chunk.
type Columns struct {
	Base int64
	N    int

	Static  []Static
	ID      []uint32 // dictionary id
	EffAddr []uint32 // effective word address (loads and stores)
}

// Decode reconstructs entry j into d. The derived fields follow the
// functional simulator's invariants: Seq is Base+j and NextPC is the
// target when the taken flag is set, the fall-through PC otherwise.
func (ck *Columns) Decode(j int, d *DynInst) {
	s := &ck.Static[ck.ID[j]]
	fl := s.Flags
	pc := int64(s.PC)
	tgt := int64(s.Target)
	d.Seq = ck.Base + int64(j)
	d.PC = pc
	d.Op = s.Op
	d.Class = s.Class
	d.Dst = s.Dst
	d.HasDst = fl&FlagHasDst != 0
	d.Src[0] = s.Src1
	d.Src[1] = s.Src2
	d.NumSrc = int(fl >> NumSrcShift)
	d.EffAddr = int64(ck.EffAddr[j])
	d.Taken = fl&FlagTaken != 0
	d.Target = tgt
	if fl&FlagTaken != 0 {
		d.NextPC = tgt
	} else {
		d.NextPC = pc + 1
	}
	d.IsLoad = fl&FlagLoad != 0
	d.IsStore = fl&FlagStore != 0
	d.IsBranch = fl&FlagBranch != 0
	d.IsJump = fl&FlagJump != 0
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

// At reconstructs instruction i; i must be in [0, Len()).
func (t *Trace) At(i int64) DynInst {
	if i < 0 || i >= t.Len() {
		panic("trace: At index out of range")
	}
	var d DynInst
	t.chunks[i>>ChunkShift].Decode(int(i&ChunkMask), &d)
	return d
}

// Cursor returns a zero-allocation chunk iterator.
func (t *Trace) Cursor() Cursor {
	if t == nil {
		return Cursor{}
	}
	return Cursor{chunks: t.chunks}
}

// Cursor iterates a Trace chunk by chunk without allocating.
type Cursor struct {
	chunks []Columns
	i      int
}

// Next returns the next chunk view, or false when exhausted.
func (c *Cursor) Next() (*Columns, bool) {
	if c.i >= len(c.chunks) {
		return nil, false
	}
	ck := &c.chunks[c.i]
	c.i++
	return ck, true
}

// Replay streams every instruction to sink as a reconstructed
// *DynInst, reusing one record — the compatibility path for
// per-instruction consumers. The record must not be retained across
// calls (copy it, as Recorder does).
func (t *Trace) Replay(sink Consumer) {
	var d DynInst
	for cur := t.Cursor(); ; {
		ck, ok := cur.Next()
		if !ok {
			return
		}
		for j := 0; j < ck.N; j++ {
			ck.Decode(j, &d)
			sink.Consume(&d)
		}
	}
}

// ReplayCtx is Replay under a context: cancellation is observed
// between chunks (within one 16K-instruction chunk the hot loop runs
// uninterrupted), returning ctx.Err() without visiting the remaining
// chunks. A completed replay is indistinguishable from Replay's — the
// check never alters what sink observes.
func (t *Trace) ReplayCtx(ctx context.Context, sink Consumer) error {
	done := ctx.Done()
	var d DynInst
	for cur := t.Cursor(); ; {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		ck, ok := cur.Next()
		if !ok {
			return nil
		}
		for j := 0; j < ck.N; j++ {
			ck.Decode(j, &d)
			sink.Consume(&d)
		}
	}
}

// Materialize reconstructs the legacy array-of-structs trace. It is
// the adapter for the verbatim seed-reference simulator
// (internal/pipeline/seedref) and for differential tests; production
// paths read columns instead.
func (t *Trace) Materialize() []DynInst {
	out := make([]DynInst, t.Len())
	i := 0
	for cur := t.Cursor(); ; {
		ck, ok := cur.Next()
		if !ok {
			return out
		}
		for j := 0; j < ck.N; j++ {
			ck.Decode(j, &out[i])
			i++
		}
	}
}

// SizeBytes returns the memory footprint: the dictionary plus both
// columns at their allocated capacity. Built, decoded and mapped
// traces of equal contents report equal sizes.
func (t *Trace) SizeBytes() int64 {
	if t == nil {
		return 0
	}
	sz := int64(cap(t.static)) * int64(unsafe.Sizeof(Static{}))
	for i := range t.chunks {
		sz += 4 * int64(cap(t.chunks[i].ID)+cap(t.chunks[i].EffAddr))
	}
	return sz
}

// Of builds a Trace from explicit records; intended for tests.
func Of(ds ...DynInst) *Trace {
	b := NewBuilder()
	for i := range ds {
		b.Append(&ds[i])
	}
	return b.Trace()
}

// Builder accumulates a Trace chunk by chunk: appends never copy
// existing data (no doubling growth), so no sizing pre-pass is needed.
// It implements Consumer, so it can sit directly on the functional
// simulator's sink.
//
// Interning is exact for any record stream. Each PC and branch
// direction remembers the id of the last tuple seen there, which the
// next execution almost always repeats; a map over every tuple catches
// the rest (indirect jumps, synthetic streams). Ids are assigned in
// first-appearance order, so equal streams encode to equal bytes.
type Builder struct {
	t    Trace
	last []uint32          // per-(PC, taken) id+1 of the last tuple seen there; 0 = none
	ids  map[Static]uint32 // every interned tuple
}

// maxSlot bounds the slot table; tuples at larger PCs intern through
// the map alone.
const maxSlot = 1 << 21

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Len returns the number of instructions appended so far.
func (b *Builder) Len() int64 { return b.t.n }

// Append encodes d at the next position. Seq and NextPC are not
// stored: Seq is implicit in position and NextPC is re-derived on
// decode from the taken flag, target and PC (the invariant every
// funcsim-produced record satisfies). Effective addresses are word
// addresses below program.MaxMemWords; one outside 32 bits breaks that
// invariant and panics.
func (b *Builder) Append(d *DynInst) {
	if uint64(d.EffAddr) > math.MaxUint32 {
		panic(fmt.Sprintf("trace: effective word address %d outside 32 bits", d.EffAddr))
	}
	fl := uint8(d.NumSrc) << NumSrcShift
	if d.HasDst {
		fl |= FlagHasDst
	}
	if d.Taken {
		fl |= FlagTaken
	}
	if d.IsLoad {
		fl |= FlagLoad
	}
	if d.IsStore {
		fl |= FlagStore
	}
	if d.IsBranch {
		fl |= FlagBranch
	}
	if d.IsJump {
		fl |= FlagJump
	}
	s := Static{
		PC: int32(d.PC), Target: int32(d.Target),
		Op: d.Op, Class: d.Class, Flags: fl,
		Dst: d.Dst, Src1: d.Src[0], Src2: d.Src[1],
	}
	cs := b.t.chunks
	if len(cs) == 0 || cs[len(cs)-1].N == ChunkLen {
		b.t.chunks = append(cs, Columns{
			Base:    b.t.n,
			Static:  b.t.static,
			ID:      make([]uint32, 0, ChunkLen),
			EffAddr: make([]uint32, 0, ChunkLen),
		})
		cs = b.t.chunks
	}
	ck := &cs[len(cs)-1]
	ck.ID = append(ck.ID, b.intern(&s, ck))
	ck.EffAddr = append(ck.EffAddr, uint32(d.EffAddr))
	ck.N++
	b.t.n++
}

// intern returns s's dictionary id, adding s if it is new (and
// refreshing the current chunk's view of the grown dictionary).
func (b *Builder) intern(s *Static, ck *Columns) uint32 {
	slot := uint32(s.PC)<<1 | uint32(s.Flags&FlagTaken)>>1
	if slot < uint32(len(b.last)) {
		if id := b.last[slot]; id != 0 && b.t.static[id-1] == *s {
			return id - 1
		}
	}
	id, ok := b.ids[*s]
	if !ok {
		if b.ids == nil {
			b.ids = make(map[Static]uint32)
		}
		id = uint32(len(b.t.static))
		b.t.static = append(b.t.static, *s)
		b.ids[*s] = id
		ck.Static = b.t.static
	}
	if slot < maxSlot {
		for uint32(len(b.last)) <= slot {
			b.last = append(b.last, 0)
		}
		b.last[slot] = id + 1
	}
	return id
}

// Consume implements Consumer.
func (b *Builder) Consume(d *DynInst) { b.Append(d) }

// Trace returns the built trace, with the dictionary and the partial
// last chunk trimmed to their live sizes. The pointer stays valid
// across further appends (the builder and the trace share storage);
// callers that need a stable snapshot should finish appending first.
func (b *Builder) Trace() *Trace {
	t := &b.t
	if cap(t.static) > len(t.static) {
		t.static = append(make([]Static, 0, len(t.static)), t.static...)
	}
	for i := range t.chunks {
		t.chunks[i].Static = t.static
	}
	if k := len(t.chunks); k > 0 {
		ck := &t.chunks[k-1]
		if cap(ck.ID) > ck.N {
			ck.ID = append(make([]uint32, 0, ck.N), ck.ID...)
			ck.EffAddr = append(make([]uint32, 0, ck.N), ck.EffAddr...)
		}
	}
	return t
}
