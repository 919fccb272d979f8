package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// buildTestTrace synthesizes a deterministic trace exercising every
// column, spanning several chunks (including a partial last chunk).
func buildTestTrace(n int64) *Trace {
	b := NewBuilder()
	var d DynInst
	s := uint64(0x9E3779B97F4A7C15)
	for i := int64(0); i < n; i++ {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		r := s * 0x2545F4914F6CDD1D
		d = DynInst{
			Seq:      i,
			PC:       int64(uint32(r) % 5000),
			Op:       isa.Op(r % uint64(isa.NumOps)),
			Class:    isa.Class(r % uint64(isa.NumClasses)),
			Dst:      isa.Reg(r % isa.NumRegs),
			HasDst:   r&1 != 0,
			Src:      [2]isa.Reg{isa.Reg((r >> 8) % isa.NumRegs), isa.Reg((r >> 16) % isa.NumRegs)},
			NumSrc:   int(r % 3),
			EffAddr:  int64(r>>24) % program.MaxMemWords,
			Taken:    r&2 != 0,
			Target:   int64(uint32(r>>4) % 5000),
			IsLoad:   r&4 != 0,
			IsStore:  r&8 != 0,
			IsBranch: r&16 != 0,
			IsJump:   r&32 != 0,
		}
		if d.Taken {
			d.NextPC = d.Target
		} else {
			d.NextPC = d.PC + 1
		}
		b.Append(&d)
	}
	return b.Trace()
}

func TestTraceCodecRoundTripBitIdentity(t *testing.T) {
	for _, n := range []int64{0, 1, ChunkLen - 1, ChunkLen, ChunkLen + 1, 2*ChunkLen + 777} {
		tr := buildTestTrace(n)
		var buf bytes.Buffer
		wrote, err := tr.WriteTo(&buf)
		if err != nil {
			t.Fatalf("n=%d: WriteTo: %v", n, err)
		}
		if wrote != tr.EncodedSize() {
			t.Fatalf("n=%d: WriteTo wrote %d bytes, EncodedSize says %d", n, wrote, tr.EncodedSize())
		}
		got, err := ReadTraceFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: ReadTraceFrom: %v", n, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("n=%d: Len = %d, want %d", n, got.Len(), tr.Len())
		}
		if got.SizeBytes() != tr.SizeBytes() {
			t.Fatalf("n=%d: SizeBytes = %d, want %d (chunk capacity must match the builder's)", n, got.SizeBytes(), tr.SizeBytes())
		}
		for i := int64(0); i < n; i++ {
			if a, b := tr.At(i), got.At(i); a != b {
				t.Fatalf("n=%d: instruction %d differs after round trip:\n  wrote %+v\n  read  %+v", n, i, a, b)
			}
		}
		// Re-encoding the decoded trace must be byte-identical: the
		// artifact store's content addressing depends on it.
		var buf2 bytes.Buffer
		if _, err := got.WriteTo(&buf2); err != nil {
			t.Fatalf("n=%d: re-encode: %v", n, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("n=%d: re-encoded stream differs from original", n)
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
			if _, err := ReadTraceFrom(bytes.NewReader(enc[:cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		// Flip one byte inside the first chunk's payload: the chunk
		// checksum must catch it.
		bad := append([]byte(nil), enc...)
		bad[8+100] ^= 0xFF
		if _, err := ReadTraceFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped payload byte: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped-crc", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0xFF // last chunk's CRC trailer
		if _, err := ReadTraceFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped CRC byte: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("negative-length", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		for i := 0; i < 8; i++ {
			bad[i] = 0xFF
		}
		if _, err := ReadTraceFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("negative length: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("implausible-length", func(t *testing.T) {
		// A forged header declaring an astronomically long stream must
		// be rejected as corrupt before any allocation sized from it
		// (not panic or OOM).
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[:8], 1<<50)
		if _, err := ReadTraceFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible length: err = %v, want ErrCorrupt", err)
		}
		if _, err := ReadBytePlaneFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible byte-plane length: err = %v, want ErrCorrupt", err)
		}
		if _, err := ReadBitPlaneFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("implausible bit-plane length: err = %v, want ErrCorrupt", err)
		}
	})
}

// resignedCorruptions damages an encoded trace behind valid checksums,
// so only the decoders' range checks stand between the damage and a
// consumer indexing past a table: one instruction references the entry
// after the dictionary's last, and dictionary entry 0 names a
// destination register outside the ISA.
func resignedCorruptions(enc []byte) map[string][]byte {
	le := binary.LittleEndian
	m := int(le.Uint32(enc[8:]))
	dictEnd := 12 + m*staticEncBytes
	chunk0 := dictEnd + 4
	live := int(min(int64(le.Uint64(enc)), ChunkLen))

	badID := append([]byte(nil), enc...)
	le.PutUint32(badID[chunk0:], uint32(m))
	body := badID[chunk0 : chunk0+live*traceInstBytes]
	le.PutUint32(badID[chunk0+len(body):], crc32.Checksum(body, crcTable))

	badReg := append([]byte(nil), enc...)
	badReg[12+11] = isa.NumRegs // entry 0's Dst byte
	le.PutUint32(badReg[dictEnd:], crc32.Checksum(badReg[8:dictEnd], crcTable))
	return map[string][]byte{"dictionary-id": badID, "register": badReg}
}

func TestTraceCodecRejectsResignedOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildTestTrace(ChunkLen + 123).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for name, bad := range resignedCorruptions(buf.Bytes()) {
		if _, err := ReadTraceFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadTraceFrom err = %v, want ErrCorrupt", name, err)
		}
		if _, err := MapTrace(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: MapTrace err = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzTraceCodec feeds arbitrary bytes to both trace decoders. Each
// must reject the input as ErrCorrupt or return a trace that decodes
// every instruction and re-encodes to exactly the bytes it consumed.
func FuzzTraceCodec(f *testing.F) {
	// Small seeds keep the minimization of new inputs fast.
	for _, n := range []int64{0, 1, 40} {
		var buf bytes.Buffer
		if _, err := buildTestTrace(n).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if n == 40 {
			for _, bad := range resignedCorruptions(buf.Bytes()) {
				f.Add(bad)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decoders := map[string]func([]byte) (*Trace, error){
			"ReadTraceFrom": func(b []byte) (*Trace, error) { return ReadTraceFrom(bytes.NewReader(b)) },
			"MapTrace":      MapTrace,
		}
		for name, decode := range decoders {
			tr, err := decode(data)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
				}
				continue
			}
			if got := int64(len(tr.Materialize())); got != tr.Len() {
				t.Fatalf("%s: Materialize gave %d of %d instructions", name, got, tr.Len())
			}
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, buf.Bytes()) || (name == "MapTrace" && buf.Len() != len(data)) {
				t.Fatalf("%s: accepted stream does not re-encode byte-identically", name)
			}
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
		got, err := ReadBytePlaneFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("n=%d: ReadBytePlaneFrom: %v", n, err)
		}
		if !got.Equal(p) || got.SizeBytes() != p.SizeBytes() {
			t.Fatalf("n=%d: decoded plane differs (equal=%v, size %d vs %d)", n, got.Equal(p), got.SizeBytes(), p.SizeBytes())
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
	if _, err := ReadBytePlaneFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := ReadBytePlaneFrom(bytes.NewReader(enc[:len(enc)-2])); !errors.Is(err, ErrCorrupt) {
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
