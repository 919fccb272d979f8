package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildTestTrace synthesizes a deterministic trace exercising every
// column, spanning several chunks (including a partial last chunk).
// The six flag bits of each tuple are the low bits of a random word.
func buildTestTrace(n int64) *Trace {
	b := NewBuilder()
	s := uint64(0x9E3779B97F4A7C15)
	for i := int64(0); i < n; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		r := s * 0x2545F4914F6CDD1D
		st := Static{
			PC:     int32(uint32(r) % 5000),
			Target: int32(uint32(r>>4) % 5000),
			Op:     isa.Op(r % uint64(isa.NumOps)),
			Class:  isa.Class(r % uint64(isa.NumClasses)),
			Flags:  uint8(r&63) | uint8(r%3)<<NumSrcShift,
			Dst:    isa.Reg(r % isa.NumRegs),
			Src1:   isa.Reg((r >> 8) % isa.NumRegs),
			Src2:   isa.Reg((r >> 16) % isa.NumRegs),
		}
		appendInst(b, st, uint32(int64(r>>24)%program.MaxMemWords))
	}
	return b.Trace()
}

// memTrace builds an n-instruction trace in which instruction i is a
// store when mem(i) holds and an ALU operation otherwise.
func memTrace(n int64, mem func(i int64) bool) *Trace {
	return traceOf(n, func(i int64) (Static, uint32) {
		if mem(i) {
			return Static{PC: int32(i % 7), Op: isa.ST, Class: isa.ClassStore, Flags: FlagStore}, uint32(3*i + 1)
		}
		return Static{PC: int32(i % 7), Op: isa.ADD, Class: isa.ClassALU}, 0
	})
}

func TestTraceCodecRoundTripBitIdentity(t *testing.T) {
	traces := map[string]*Trace{
		// No loads or stores at all, and nothing but stores.
		"no-memory":   memTrace(ChunkLen+5, func(int64) bool { return false }),
		"only-memory": memTrace(ChunkLen+5, func(int64) bool { return true }),
	}
	for _, n := range []int64{0, 1, ChunkLen - 1, ChunkLen, ChunkLen + 1, 2*ChunkLen + 777} {
		traces[fmt.Sprint(n)] = buildTestTrace(n)
	}
	// Widened early and mid-way in the first chunk, and a narrow chunk
	// then a widened one and a wide one.
	for _, at := range []int64{300, ChunkLen / 2, ChunkLen + 400} {
		traces[fmt.Sprintf("crossing-at-%d", at)] = crossingTrace(2*ChunkLen+5, at)
	}
	for name, tr := range traces {
		var buf bytes.Buffer
		wrote, err := tr.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if wrote != tr.EncodedSize() {
			t.Fatalf("%s: WriteTo wrote %d bytes, EncodedSize says %d", name, wrote, tr.EncodedSize())
		}
		got, err := MapTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: MapTrace: %v", name, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("%s: Len = %d, want %d", name, got.Len(), tr.Len())
		}
		if got.SizeBytes() != tr.SizeBytes() {
			t.Fatalf("%s: SizeBytes = %d, want %d (chunk capacity must match the builder's)", name, got.SizeBytes(), tr.SizeBytes())
		}
		if !sameColumns(got, tr) {
			t.Fatalf("%s: columns differ after round trip", name)
		}
		// Re-encoding the decoded trace must be byte-identical: the
		// artifact store's content addressing depends on it.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: re-encoded stream differs from original", name)
		}
	}
}

func TestTraceCodecRejectsCorruption(t *testing.T) {
	tr := buildTestTrace(ChunkLen + 123)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{4, len(enc) / 2, len(enc) - 1} {
			if _, err := MapTrace(enc[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		// Flip one byte inside the first chunk's payload: the chunk
		// checksum must catch it.
		bad := append([]byte(nil), enc...)
		bad[8+100] ^= 0xFF
		if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped payload byte: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped-crc", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0xFF // last chunk's CRC trailer
		if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped CRC byte: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("negative-length", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		for i := 0; i < 8; i++ {
			bad[i] = 0xFF
		}
		if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("negative length: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("implausible-length", func(t *testing.T) {
		// A forged header declaring an astronomically long stream must
		// be rejected as corrupt before any allocation sized from it
		// (not panic or OOM).
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[:8], 1<<50)
		if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible length: err = %v, want ErrCorrupt", err)
		}
		if _, err := MapBytePlane(bad, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible byte-plane length: err = %v, want ErrCorrupt", err)
		}
		if _, err := ReadBitPlaneFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible bit-plane length: err = %v, want ErrCorrupt", err)
		}
	})
}

// resignedCorruptions damages tr's encoding behind valid checksums,
// so only the decoders' range and count checks stand between the
// damage and a consumer indexing past a table or a column. Chunk 0
// must hold a load or store.
//
//   - dictionary-id: one instruction references the entry after the
//     dictionary's last.
//   - register: dictionary entry 0 names a destination register
//     outside the ISA.
//   - id-width: chunk 0 declares ids of 3 bytes.
//   - header-count-high, header-count-low: the header's count of loads
//     and stores disagrees with the ids.
//   - truncated-addr, trailing-addr: chunk 0's address column is one
//     entry shorter or longer than its ids imply, with the header count
//     adjusted to match, so the stream has exactly the size its header
//     implies.
//
// A trace whose dictionary fits a byte adds wide-chunk: chunk 0
// re-encoded with 2-byte ids, which no Builder writes under such a
// dictionary.
func resignedCorruptions(tr *Trace) map[string][]byte {
	le := binary.LittleEndian
	m := len(tr.static)
	dictEnd := traceHdrBytes + 4 + m*staticEncBytes
	ck := tr.chunks[0]
	ids, w := make([]uint16, ck.N), byte(1)
	for j := range ids {
		if ck.Wide() {
			ids[j], w = ck.ID16[j], 2
		} else {
			ids[j] = uint16(ck.ID8[j])
		}
	}
	chunk0 := 1 + int(w)*ck.N + 4*len(ck.Addr) + 4 // chunk 0's encoded size
	// enc encodes tr with header count a and chunk 0's columns replaced
	// by ids, written w bytes each, and addr, the chunk re-signed.
	enc := func(a int64, w byte, ids []uint16, addr []uint32) []byte {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			panic(err)
		}
		full := buf.Bytes()
		le.PutUint64(full[8:], uint64(a))
		out := append([]byte(nil), full[:dictEnd+4]...)
		out = append(out, w)
		for _, v := range ids {
			out = append(out, byte(v))
			if w > 1 {
				out = append(out, byte(v>>8))
			}
			for range int(w) - 2 {
				out = append(out, 0)
			}
		}
		for _, v := range addr {
			out = le.AppendUint32(out, v)
		}
		out = le.AppendUint32(out, crc32.Checksum(out[dictEnd+4:], crcTable))
		return append(out, full[dictEnd+4+chunk0:]...)
	}
	a := tr.mem
	badID := slices.Clone(ids)
	badID[0] = uint16(m)
	badReg := enc(a, w, ids, ck.Addr)
	badReg[traceHdrBytes+4+11] = isa.NumRegs // entry 0's Dst byte
	le.PutUint32(badReg[dictEnd:], crc32.Checksum(badReg[traceHdrBytes:dictEnd], crcTable))
	out := map[string][]byte{
		"dictionary-id":     enc(a, w, badID, ck.Addr),
		"register":          badReg,
		"id-width":          enc(a, 3, ids, ck.Addr),
		"header-count-high": enc(a+1, w, ids, ck.Addr),
		"header-count-low":  enc(a-1, w, ids, ck.Addr),
		"truncated-addr":    enc(a-1, w, ids, ck.Addr[:len(ck.Addr)-1]),
		"trailing-addr":     enc(a+1, w, ids, append(slices.Clone(ck.Addr), 7)),
	}
	if m <= NarrowTuples {
		out["wide-chunk"] = enc(a, 2, ids, ck.Addr)
	}
	return out
}

func TestTraceCodecRejectsResignedOutOfRange(t *testing.T) {
	for _, tr := range []*Trace{buildTestTrace(ChunkLen + 123), crossingTrace(ChunkLen+123, ChunkLen+300)} {
		for name, bad := range resignedCorruptions(tr) {
			if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%d tuples, %s: MapTrace err = %v, want ErrCorrupt", len(tr.static), name, err)
			}
		}
	}
}

// padDictionary returns stream, a trace encoding, with copies of
// dictionary entry 0 appended until the dictionary has m entries, the
// count and the dictionary checksum re-signed. No id references the
// copies, so the stream differs from a valid one only in its count.
func padDictionary(stream []byte, m int) []byte {
	le := binary.LittleEndian
	old := int(le.Uint32(stream[traceHdrBytes:]))
	dictEnd := traceHdrBytes + 4 + old*staticEncBytes
	out := append([]byte(nil), stream[:dictEnd]...)
	le.PutUint32(out[traceHdrBytes:], uint32(m))
	for i := old; i < m; i++ {
		out = append(out, stream[traceHdrBytes+4:traceHdrBytes+4+staticEncBytes]...)
	}
	out = le.AppendUint32(out, crc32.Checksum(out[traceHdrBytes:], crcTable))
	return append(out, stream[dictEnd+4:]...)
}

// TestTraceCodecRejectsOversizedDictionary checks both sides of the
// dictionary cap on an otherwise valid stream with more instructions
// than tuples: MaxTuples entries decode and re-encode exactly, one more
// is ErrCorrupt.
func TestTraceCodecRejectsOversizedDictionary(t *testing.T) {
	tr := memTrace(MaxTuples+100, func(i int64) bool { return i%3 == 0 })
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := padDictionary(buf.Bytes(), MaxTuples)
	got, err := MapTrace(full)
	if err != nil {
		t.Fatalf("dictionary of MaxTuples entries: %v", err)
	}
	var re bytes.Buffer
	if _, err := got.WriteTo(&re); err != nil || !bytes.Equal(re.Bytes(), full) {
		t.Fatalf("dictionary of MaxTuples entries does not re-encode exactly (err %v)", err)
	}
	if _, err := MapTrace(padDictionary(buf.Bytes(), MaxTuples+1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dictionary of MaxTuples+1 entries: err = %v, want ErrCorrupt", err)
	}
}

// FuzzTraceCodec feeds arbitrary bytes to the trace decoder. It must
// reject the input as ErrCorrupt or return a trace that decodes every
// instruction and re-encodes to exactly the input.
func FuzzTraceCodec(f *testing.F) {
	// Small seeds keep the minimization of new inputs fast; the
	// chunk-sized seeds have a run of stores straddling the boundary,
	// and a narrow chunk, a widened one and a wide one in turn.
	seeds := []*Trace{
		buildTestTrace(0), buildTestTrace(1), buildTestTrace(40),
		memTrace(40, func(int64) bool { return false }),
		memTrace(40, func(int64) bool { return true }),
		memTrace(ChunkLen+4, func(i int64) bool { return i >= ChunkLen-4 }),
		crossingTrace(300, 260),
		crossingTrace(2*ChunkLen+40, ChunkLen+300),
	}
	for _, tr := range seeds {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, tr := range []*Trace{seeds[2], seeds[6]} {
		bad := resignedCorruptions(tr)
		for _, name := range slices.Sorted(maps.Keys(bad)) {
			f.Add(bad[name])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := MapTrace(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if got := readAll(tr); got != tr.Len() {
			t.Fatalf("read %d of %d instructions", got, tr.Len())
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, buf.Bytes()) {
			t.Fatal("accepted stream does not re-encode byte-identically")
		}
	})
}

func TestBytePlaneCodecRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, ChunkLen, ChunkLen + 99} {
		b := NewBytePlaneBuilder()
		for i := int64(0); i < n; i++ {
			b.Append(uint8(i*31 + 7))
		}
		p := b.Plane()
		var buf bytes.Buffer
		wrote, err := p.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: WriteTo: %v", n, err)
		}
		if wrote != p.EncodedSize() {
			t.Fatalf("n=%d: wrote %d, EncodedSize %d", n, wrote, p.EncodedSize())
		}
		got, err := MapBytePlane(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("n=%d: MapBytePlane: %v", n, err)
		}
		// The decoded plane aliases exactly the stream's live bytes.
		if !got.Equal(p) || got.SizeBytes() != n {
			t.Fatalf("n=%d: decoded plane differs (equal=%v, size %d, want %d)", n, got.Equal(p), got.SizeBytes(), n)
		}
		// Re-encoding must be byte-identical, as for traces.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatalf("n=%d: re-encode: %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("n=%d: re-encoded stream differs from original", n)
		}
	}
}

func TestBytePlaneCodecRejectsCorruption(t *testing.T) {
	b := NewBytePlaneBuilder()
	for i := 0; i < ChunkLen+5; i++ {
		b.Append(uint8(i))
	}
	var buf bytes.Buffer
	if _, err := b.Plane().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	bad := append([]byte(nil), enc...)
	bad[8+17] ^= 0x01
	if _, err := MapBytePlane(bad, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := MapBytePlane(enc[:len(enc)-2], nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}

func TestBitPlaneCodecRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1, 63, 64, ChunkLen, ChunkLen + 65} {
		b := NewBitPlaneBuilder()
		for i := int64(0); i < n; i++ {
			b.Append(i%3 == 0 || i%7 == 0)
		}
		p := b.Plane()
		var buf bytes.Buffer
		wrote, err := p.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: WriteTo: %v", n, err)
		}
		if wrote != p.EncodedSize() {
			t.Fatalf("n=%d: wrote %d, EncodedSize %d", n, wrote, p.EncodedSize())
		}
		got, err := ReadBitPlaneFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: ReadBitPlaneFrom: %v", n, err)
		}
		if !got.Equal(p) || got.Count() != p.Count() || got.SizeBytes() != p.SizeBytes() {
			t.Fatalf("n=%d: decoded bit plane differs", n)
		}
	}
}

func TestBitPlaneCodecRejectsCorruption(t *testing.T) {
	b := NewBitPlaneBuilder()
	for i := 0; i < ChunkLen+100; i++ {
		b.Append(i%2 == 0)
	}
	var buf bytes.Buffer
	if _, err := b.Plane().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	bad := append([]byte(nil), enc...)
	bad[8+3] ^= 0x80
	if _, err := ReadBitPlaneFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := ReadBitPlaneFrom(bytes.NewReader(enc[:9])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want ErrCorrupt", err)
	}
}
