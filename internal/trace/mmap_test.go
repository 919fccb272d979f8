package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// mapTestTrace builds a trace spanning a partial last chunk so mapped
// column slicing is exercised at both full and truncated live lengths.
func mapTestTrace(t *testing.T, n int) *Trace {
	t.Helper()
	b := NewBuilder()
	var d DynInst
	for i := 0; i < n; i++ {
		d.Seq = int64(i)
		d.PC = int64(i % 911)
		d.Op = 3
		d.Class = 2
		d.Dst = isa.Reg(i % 29)
		d.HasDst = i%3 != 0
		d.Src[0] = isa.Reg(i % 31)
		d.Src[1] = isa.Reg(i % 23)
		d.NumSrc = i % 3
		d.EffAddr = int64(i) * 524287 % program.MaxMemWords
		d.Taken = i%7 == 0
		d.Target = int64((i * 13) % 911)
		if d.Taken {
			d.NextPC = d.Target
		} else {
			d.NextPC = d.PC + 1
		}
		d.IsLoad = i%5 == 0
		d.IsBranch = i%7 == 0
		b.Append(&d)
	}
	return b.Trace()
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMapTraceMatchesDecodePath(t *testing.T) {
	tr := mapTestTrace(t, 2*ChunkLen+123)
	enc := encodeTrace(t, tr)
	decoded, err := ReadTraceFrom(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MapTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != tr.Len() {
		t.Fatalf("mapped trace has %d instructions, want %d", mapped.Len(), tr.Len())
	}
	if mapped.SizeBytes() != tr.SizeBytes() || decoded.SizeBytes() != tr.SizeBytes() {
		t.Fatalf("SizeBytes: built %d, decoded %d, mapped %d", tr.SizeBytes(), decoded.SizeBytes(), mapped.SizeBytes())
	}
	for i := int64(0); i < tr.Len(); i++ {
		if a, b := mapped.At(i), decoded.At(i); a != b {
			t.Fatalf("instruction %d differs between mapped and decoded trace:\n mapped  %+v\n decoded %+v", i, a, b)
		}
	}
	// The mapped trace owns its columns: scribbling over the stream
	// (as unmapping would) must not reach it.
	want := mapped.At(0)
	for i := range enc {
		enc[i] = 0xFF
	}
	if got := mapped.At(0); got != want {
		t.Fatalf("mapped trace aliases the encoded stream: %+v -> %+v", want, got)
	}
}

func TestMapTraceRejectsCorruption(t *testing.T) {
	tr := mapTestTrace(t, ChunkLen+57)
	enc := encodeTrace(t, tr)

	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := MapTrace(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped chunk byte: err = %v, want ErrCorrupt", err)
	}

	if _, err := MapTrace(enc[:len(enc)-5]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated stream: err = %v, want ErrCorrupt", err)
	}
	if _, err := MapTrace(enc[:4]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header: err = %v, want ErrCorrupt", err)
	}

	grown := append(append([]byte(nil), enc...), 0)
	if _, err := MapTrace(grown); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize stream: err = %v, want ErrCorrupt", err)
	}

	// A corrupted length header implies a different exact size, so the
	// framing check rejects it even though no chunk CRC is reachable.
	badLen := append([]byte(nil), enc...)
	badLen[0] ^= 0x01
	if _, err := MapTrace(badLen); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted length header: err = %v, want ErrCorrupt", err)
	}
}

func TestMapBytePlaneMatchesDecodePath(t *testing.T) {
	bb := NewBytePlaneBuilder()
	for i := 0; i < 3*ChunkLen/2+7; i++ {
		bb.Append(uint8(i % 251))
	}
	var buf bytes.Buffer
	if _, err := bb.Plane().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBytePlaneFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MapBytePlane(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(decoded) || !mapped.Equal(bb.Plane()) {
		t.Fatal("mapped byte plane differs from the decoded one")
	}

	flipped := append([]byte(nil), buf.Bytes()...)
	flipped[9] ^= 0x10
	if _, err := MapBytePlane(flipped, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped plane byte: err = %v, want ErrCorrupt", err)
	}
	if _, err := MapBytePlane(flipped[:11], nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated plane: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenMappedTraceRoundTrip exercises the real mmap syscall path:
// a trace encoded to a file, mapped, and replayed must match the
// original byte for byte, and must outlive the mapping.
func TestOpenMappedTraceRoundTrip(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	tr := mapTestTrace(t, ChunkLen+999)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, encodeTrace(t, tr), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := MapTrace(m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < tr.Len(); i += 101 {
		if a, b := mapped.At(i), tr.At(i); a != b {
			t.Fatalf("instruction %d differs after mmap round trip", i)
		}
	}
	// Unlinking the file must not affect the trace either, mirroring
	// what a concurrent store rewrite does.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if got := mapped.At(0); got != tr.At(0) {
		t.Fatalf("mapped trace changed after unlink: %+v", got)
	}
}

func TestOpenMappedMissingFile(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("OpenMapped of a missing file succeeded")
	}
}
