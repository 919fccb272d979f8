package trace

import "testing"

func TestBytePlaneRoundTrip(t *testing.T) {
	b := NewBytePlaneBuilder()
	n := int64(ChunkLen + 1000) // cross a chunk boundary
	for i := int64(0); i < n; i++ {
		b.Append(uint8(i % 251))
	}
	p := b.Plane()
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if got := p.At(i); got != uint8(i%251) {
			t.Fatalf("At(%d) = %d, want %d", i, got, uint8(i%251))
		}
	}
	if len(p.Chunks()) != 2 {
		t.Errorf("chunks = %d, want 2", len(p.Chunks()))
	}
	if p.SizeBytes() != 2*ChunkLen {
		t.Errorf("SizeBytes = %d, want %d", p.SizeBytes(), 2*ChunkLen)
	}
	// Chunk-aligned access: entry i is chunk i>>ChunkShift, offset
	// i&ChunkMask — the same indexing the trace's hot columns use.
	i := int64(ChunkLen + 123)
	if got := p.Chunks()[i>>ChunkShift][i&ChunkMask]; got != uint8(i%251) {
		t.Errorf("chunk access = %d, want %d", got, uint8(i%251))
	}
}

func TestBytePlaneAtPanicsOutOfRange(t *testing.T) {
	b := NewBytePlaneBuilder()
	b.Append(1)
	defer func() {
		if recover() == nil {
			t.Error("At(1) on length-1 plane did not panic")
		}
	}()
	b.Plane().At(1)
}

func TestBitPlaneRoundTrip(t *testing.T) {
	b := NewBitPlaneBuilder()
	n := int64(ChunkLen + 777)
	set := func(i int64) bool { return i%17 == 3 || i%64 == 63 }
	var want int64
	for i := int64(0); i < n; i++ {
		b.Append(set(i))
		if set(i) {
			want++
		}
	}
	p := b.Plane()
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	for i := int64(0); i < n; i++ {
		if p.Get(i) != set(i) {
			t.Fatalf("Get(%d) = %v, want %v", i, p.Get(i), set(i))
		}
	}
	if p.Count() != want {
		t.Errorf("Count = %d, want %d", p.Count(), want)
	}
}

func TestPlaneEqual(t *testing.T) {
	build := func(n int64, f func(int64) uint8) *BytePlane {
		b := NewBytePlaneBuilder()
		for i := int64(0); i < n; i++ {
			b.Append(f(i))
		}
		return b.Plane()
	}
	n := int64(ChunkLen + 5)
	a := build(n, func(i int64) uint8 { return uint8(i) })
	bb := build(n, func(i int64) uint8 { return uint8(i) })
	if !a.Equal(bb) {
		t.Error("identical planes not Equal")
	}
	c := build(n, func(i int64) uint8 {
		if i == n-1 {
			return 99
		}
		return uint8(i)
	})
	if a.Equal(c) {
		t.Error("planes differing in the last (partial-chunk) entry compare Equal")
	}
	if a.Equal(build(n-1, func(i int64) uint8 { return uint8(i) })) {
		t.Error("planes of different length compare Equal")
	}

	bp1 := NewBitPlaneBuilder()
	bp2 := NewBitPlaneBuilder()
	bp3 := NewBitPlaneBuilder()
	for i := int64(0); i < n; i++ {
		bp1.Append(i%5 == 0)
		bp2.Append(i%5 == 0)
		bp3.Append(i%5 == 1)
	}
	if !bp1.Plane().Equal(bp2.Plane()) {
		t.Error("identical bit planes not Equal")
	}
	if bp1.Plane().Equal(bp3.Plane()) {
		t.Error("different bit planes compare Equal")
	}
}

func TestNilPlanes(t *testing.T) {
	var bp *BytePlane
	var bt *BitPlane
	if bp.Len() != 0 || bt.Len() != 0 || bp.SizeBytes() != 0 || bt.Count() != 0 {
		t.Error("nil planes not empty")
	}
	if bp.Chunks() != nil || bt.Chunks() != nil {
		t.Error("nil planes expose chunks")
	}
}

// TestAnnLatencyBits pins the annotation byte layout the cache
// annotator writes and the pipeline's latency decode reads: the D-side
// bits are the I-side bits shifted by AnnDShift.
func TestAnnLatencyBits(t *testing.T) {
	if AnnDTLBMiss != AnnITLBMiss<<AnnDShift ||
		AnnDL1Miss != AnnIL1Miss<<AnnDShift ||
		AnnDL2Miss != AnnIL2Miss<<AnnDShift {
		t.Error("D-side annotation bits are not the I-side bits shifted by AnnDShift")
	}
	full := AnnITLBMiss | AnnIL1Miss | AnnIL2Miss | AnnDTLBMiss | AnnDL1Miss | AnnDL2Miss
	if full>>AnnDShift&AnnSideMask != AnnITLBMiss|AnnIL1Miss|AnnIL2Miss {
		t.Error("AnnSideMask does not isolate one side")
	}
}

// TestAppendChunkMatchesAppend pins the chunk-at-a-time builders
// (BitPlaneBuilder.AppendChunk, BytePlaneBuilder.AppendShared) against
// per-entry appends: the same entries written through the chunks build
// equal planes of equal size, and a chunk off the grid panics.
func TestAppendChunkMatchesAppend(t *testing.T) {
	n := 2*ChunkLen + 555 // two full chunks and a partial one
	val := func(i int) uint8 {
		if i%7 == 2 {
			return uint8(i % 61)
		}
		return 0
	}
	byEntry, byChunk := NewBytePlaneBuilder(), NewBytePlaneBuilder()
	bitEntry, bitChunk := NewBitPlaneBuilder(), NewBitPlaneBuilder()
	for i := 0; i < n; i++ {
		byEntry.Append(val(i))
		bitEntry.Append(val(i) != 0)
	}
	for base := 0; base < n; base += ChunkLen {
		m := min(n-base, ChunkLen)
		c, ws := make([]uint8, ChunkLen), bitChunk.AppendChunk(m)
		byChunk.AppendShared(c, m)
		for j := 0; j < m; j++ {
			if v := val(base + j); v != 0 {
				c[j] = v
				ws[j>>6] |= 1 << uint(j&63)
			}
		}
	}
	if p, q := byChunk.Plane(), byEntry.Plane(); !p.Equal(q) || p.SizeBytes() != q.SizeBytes() {
		t.Errorf("byte planes differ: %d/%d bytes vs %d/%d", p.Len(), p.SizeBytes(), q.Len(), q.SizeBytes())
	}
	if p, q := bitChunk.Plane(), bitEntry.Plane(); !p.Equal(q) || p.SizeBytes() != q.SizeBytes() {
		t.Errorf("bit planes differ: %d/%d bytes vs %d/%d", p.Len(), p.SizeBytes(), q.Len(), q.SizeBytes())
	}

	for name, f := range map[string]func(){
		"byte after a partial chunk": func() { byChunk.AppendShared(make([]uint8, ChunkLen), 1) },
		"bit after a partial chunk":  func() { bitChunk.AppendChunk(1) },
		"byte oversize":              func() { NewBytePlaneBuilder().AppendShared(make([]uint8, ChunkLen), ChunkLen+1) },
		"byte short chunk":           func() { NewBytePlaneBuilder().AppendShared(make([]uint8, 9), 9) },
		"bit empty":                  func() { NewBitPlaneBuilder().AppendChunk(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AppendChunk did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestPlaneEqualSharedChunks pins Equal's fast paths: a plane equals
// itself, planes that share every chunk are equal without reading
// them, and a chunk they do not share is still compared byte by byte.
func TestPlaneEqualSharedChunks(t *testing.T) {
	c0, c1, c2 := make([]uint8, ChunkLen), make([]uint8, ChunkLen), make([]uint8, ChunkLen)
	c1[5], c2[5] = 1, 2
	build := func(cs ...[]uint8) *BytePlane {
		b := NewBytePlaneBuilder()
		for i, c := range cs {
			n := ChunkLen
			if i == len(cs)-1 {
				n = 9
			}
			b.AppendShared(c, n)
		}
		return b.Plane()
	}
	p := build(c0, c1)
	if !p.Equal(p) || !p.Equal(build(c0, c1)) || !p.Equal(build(c0, append([]uint8(nil), c1...))) {
		t.Fatal("equal planes compare unequal")
	}
	if p.Equal(build(c0, c2)) || p.Equal(build(c1, c1)) {
		t.Fatal("different planes compare equal")
	}
	if p.Len() != ChunkLen+9 || p.SizeBytes() != 2*ChunkLen || p.At(ChunkLen+5) != 1 {
		t.Fatalf("shared plane: len %d, size %d, byte %d", p.Len(), p.SizeBytes(), p.At(ChunkLen+5))
	}
	var bp BitPlane
	if !bp.Equal(&bp) {
		t.Fatal("a bit plane is not equal to itself")
	}
}
