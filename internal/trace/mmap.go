package trace

import (
	"fmt"
	"os"
	"runtime"
)

// Mapping is a read-only memory mapping of an encoded artifact file.
// It backs the mapped rehydration path: MapBytePlane builds a plane
// whose chunks alias the mapped bytes instead of decode-and-copy, so a
// warm boot touches only the pages it reads and shares them with every
// other process mapping the same file; MapTrace decodes straight out
// of the mapping into owned columns.
//
// The mapping is released by the garbage collector once the Mapping —
// and every plane aliasing it (each holds an owner reference) — is
// unreachable. Close releases it eagerly; it is only safe when no
// mapped store is alive, so production code calls it only when nothing
// aliasing the mapping was handed out: after a copying decode (traces,
// bit planes) or a failed load.
//
// The artifact store writes files with an atomic temp-file + rename,
// so a concurrent re-save of the same key replaces the directory entry
// while this mapping keeps the old inode alive — mapped stores never
// observe a file mutating under them. Out-of-band in-place truncation
// is the one hazard mmap cannot checksum away (a later page fault
// faults); the framing and checksum validation at open time is what
// the loaders rely on.
type Mapping struct {
	data []byte
}

// OpenMapped maps path read-only. On platforms without mmap support it
// returns an error and callers read the file into memory instead.
func OpenMapped(path string) (*Mapping, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("trace: memory-mapped loads unsupported on %s", runtime.GOOS)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("trace: cannot map %s: size %d", path, size)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	m := &Mapping{data: data}
	runtime.SetFinalizer(m, (*Mapping).Close)
	return m, nil
}

// Bytes returns the mapped file contents. The slice is read-only
// (PROT_READ): writing through it faults.
func (m *Mapping) Bytes() []byte { return m.data }

// Close unmaps the file. Unsafe while any store built over this
// mapping is still reachable — see the type comment.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	runtime.SetFinalizer(m, nil)
	return munmapBytes(data)
}
