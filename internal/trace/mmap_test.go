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
	return traceOf(int64(n), func(i int64) (Static, uint32) {
		s := Static{
			PC: int32(i % 911), Target: int32((i * 13) % 911), Op: 3, Class: 2,
			Flags: uint8(i%3) << NumSrcShift,
			Dst:   isa.Reg(i % 29), Src1: isa.Reg(i % 31), Src2: isa.Reg(i % 23),
		}
		if i%3 != 0 {
			s.Flags |= FlagHasDst
		}
		if i%7 == 0 {
			s.Flags |= FlagTaken | FlagBranch
		}
		if i%5 != 0 {
			return s, 0
		}
		s.Flags |= FlagLoad
		return s, uint32(i * 524287 % program.MaxMemWords)
	})
}

func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMapTraceMatchesBuiltTrace(t *testing.T) {
	tr := mapTestTrace(t, 2*ChunkLen+123)
	enc := encodeTrace(t, tr)
	mapped, err := MapTrace(enc)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != tr.Len() {
		t.Fatalf("mapped trace has %d instructions, want %d", mapped.Len(), tr.Len())
	}
	if mapped.SizeBytes() != tr.SizeBytes() {
		t.Fatalf("SizeBytes: built %d, mapped %d", tr.SizeBytes(), mapped.SizeBytes())
	}
	if !sameColumns(mapped, tr) {
		t.Fatal("mapped and built trace store different columns")
	}
	// The mapped trace owns its columns: scribbling over the stream
	// (as unmapping would) must not reach it.
	for i := range enc {
		enc[i] = 0xFF
	}
	if !sameColumns(mapped, tr) {
		t.Fatal("mapped trace aliases the encoded stream")
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

func TestMapBytePlaneMatchesBuiltPlane(t *testing.T) {
	bb := NewBytePlaneBuilder()
	for i := 0; i < 3*ChunkLen/2+7; i++ {
		bb.Append(uint8(i % 251))
	}
	var buf bytes.Buffer
	if _, err := bb.Plane().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	mapped, err := MapBytePlane(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(bb.Plane()) {
		t.Fatal("mapped byte plane differs from the built one")
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
	if !sameColumns(mapped, tr) {
		t.Fatal("columns differ after mmap round trip")
	}
	// Unlinking the file must not affect the trace either, mirroring
	// what a concurrent store rewrite does.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !sameColumns(mapped, tr) {
		t.Fatal("mapped trace changed after unlink")
	}
}

func TestOpenMappedMissingFile(t *testing.T) {
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("OpenMapped of a missing file succeeded")
	}
}
