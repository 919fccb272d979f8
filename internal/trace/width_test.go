package trace

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// crossingInst returns instruction i of a stream whose 257th tuple, the
// first whose id does not fit a byte, first appears at instruction at
// (at >= 256; never if at is past the stream). Instructions cycle over
// PCs 0..6, except that 256 new PCs run straight through from at-249
// on. Every fifth PC is a store.
func crossingInst(i, at int64) (Static, uint32) {
	pc := i % 7
	if q := at - (NarrowTuples - 7); i >= q && i < q+NarrowTuples {
		pc = 7 + i - q
	}
	if pc%5 == 0 {
		return Static{PC: int32(pc), Op: isa.ST, Class: isa.ClassStore, Flags: FlagStore}, uint32(3*i + 1)
	}
	return Static{PC: int32(pc), Op: isa.ADD, Class: isa.ClassALU}, 0
}

// crossingTrace builds the first n instructions of crossingInst(., at).
func crossingTrace(n, at int64) *Trace {
	return traceOf(n, func(i int64) (Static, uint32) { return crossingInst(i, at) })
}

// widths returns "n" or "w" per chunk of tr.
func widths(tr *Trace) string {
	var s []byte
	for i := range tr.Chunks() {
		if tr.chunks[i].Wide() {
			s = append(s, 'w')
		} else {
			s = append(s, 'n')
		}
	}
	return string(s)
}

// TestBuilderWidensAtCrossing puts the first wide id just before, at
// and just after the first chunk edge, and deep inside the first and
// the third chunk. The open chunk is widened in place, a full one is
// sealed narrow, and every chunk opened afterwards is wide. The chunks
// handed to OnSeal are never written again, and the trace reads back
// the tuples and addresses it was built from.
func TestBuilderWidensAtCrossing(t *testing.T) {
	const n = 3*ChunkLen + 5
	for _, c := range []struct {
		at     int64
		widths string
	}{
		{300, "wwww"},
		{ChunkLen - 1, "wwww"},
		{ChunkLen, "nwww"},
		{ChunkLen + 1, "nwww"},
		{2*ChunkLen + 7, "nnww"},
		{n, "nnnn"},
	} {
		t.Run(fmt.Sprint(c.at), func(t *testing.T) {
			inst := func(i int64) (Static, uint32) { return crossingInst(i, c.at) }
			b := NewBuilder()
			var sealed []Columns
			var copies [][]uint16
			b.OnSeal(func(ck Columns) {
				sealed = append(sealed, ck)
				copies = append(copies, idsOf(&ck))
			})
			for i := int64(0); i < n; i++ {
				s, addr := inst(i)
				appendInst(b, s, addr)
			}
			tr := b.Trace()
			if got := widths(tr); got != c.widths {
				t.Fatalf("chunk widths %q, want %q", got, c.widths)
			}
			if len(sealed) != tr.NumChunks()-1 {
				t.Fatalf("%d chunks sealed, want %d", len(sealed), tr.NumChunks()-1)
			}
			for i := range sealed {
				if got := idsOf(&sealed[i]); !slices.Equal(got, copies[i]) {
					t.Fatalf("sealed chunk %d was rewritten", i)
				}
				if sealed[i].Wide() != tr.chunks[i].Wide() {
					t.Fatalf("sealed chunk %d changed width", i)
				}
			}
			if tr.Len() != n {
				t.Fatalf("trace has %d instructions, want %d", tr.Len(), n)
			}
			if i := firstMismatch(tr, inst); i >= 0 {
				t.Fatalf("instruction %d does not read back as built", i)
			}
			if c.at < n {
				if got := tr.chunks[c.at>>ChunkShift].Tuple(int(c.at & ChunkMask)); got.PC != NarrowTuples {
					t.Fatalf("instruction %d has PC %d, want the 257th tuple's %d", c.at, got.PC, NarrowTuples)
				}
			}
		})
	}
}

// idsOf returns a copy of ck's ids, widened.
func idsOf(ck *Columns) []uint16 {
	out := make([]uint16, ck.N)
	for j := range out {
		if ck.Wide() {
			out[j] = ck.ID16[j]
		} else {
			out[j] = uint16(ck.ID8[j])
		}
	}
	return out
}

// TestSizeBytesCountsIDWidth checks SizeBytes to the byte: the
// dictionary, one byte per id of a narrow chunk, two per id of a wide
// one and four per address.
func TestSizeBytesCountsIDWidth(t *testing.T) {
	const n = 2*ChunkLen + 5
	for _, at := range []int64{300, ChunkLen + 400, n} {
		tr := crossingTrace(n, at)
		want := int64(len(tr.static)) * int64(unsafe.Sizeof(Static{}))
		var narrow int64
		for i := range tr.chunks {
			ck := &tr.chunks[i]
			if !ck.Wide() {
				narrow += int64(ck.N)
			}
			want += 4 * int64(len(ck.Addr))
		}
		want += narrow + 2*(n-narrow)
		if got := tr.SizeBytes(); got != want {
			t.Errorf("first wide id at %d (chunks %s): SizeBytes %d, want %d", at, widths(tr), got, want)
		}
		if at == n && narrow != n {
			t.Errorf("a trace whose dictionary fits a byte has %d wide ids", n-narrow)
		}
	}
}
