package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/program"
)

// SourceExt is the on-disk extension of persisted submissions.
const SourceExt = ".asm"

// Entry is one accepted workload: the canonical source, its parsed
// program, and its content identity. Entries are immutable after
// registration — the program is shared read-only by every admission
// that rebuilds the workload.
type Entry struct {
	Name        string // public content-addressed name ("user-<fp12>")
	Fingerprint string // full program fingerprint (artifact identity)
	Source      string // canonical (disassembled) text, what persists
	Prog        *program.Program
	Stored      bool // persisted to the registry dir (false = memory-only or a failed write)
}

// Registry is the named set of ingested workloads, persisted (when a
// directory is configured) as one canonical .asm file per fingerprint
// so a restarted server re-registers every accepted submission before
// serving — the ingestion analogue of the artifact store's warm start.
type Registry struct {
	mu     sync.RWMutex
	dir    string // "" = memory-only
	lim    Limits
	byName map[string]*Entry

	loadErrors int64 // corrupt/invalid files skipped at open
	saveErrors int64 // failed persists (entry stays memory-resident)
}

// OpenRegistry loads every persisted submission under dir (creating it
// if needed); dir == "" makes a memory-only registry. Files that no
// longer parse, no longer satisfy lim, or whose content moved away
// from their name are skipped and counted, never served: the registry
// can only lose a workload, not resurrect a bad one.
func OpenRegistry(dir string, lim Limits) (*Registry, error) {
	r := &Registry{dir: dir, lim: lim.WithDefaults(), byName: make(map[string]*Entry)}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: opening registry: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+SourceExt))
	if err != nil {
		return nil, fmt.Errorf("ingest: scanning registry: %w", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			r.loadErrors++
			continue
		}
		p, err := Parse(string(src), r.lim)
		if err != nil {
			r.loadErrors++
			continue
		}
		name := WorkloadName(p.Fingerprint())
		if filepath.Base(path) != name+SourceExt {
			// Renamed or tampered file: its content no longer matches
			// its key, so it would collide with the real thing.
			r.loadErrors++
			continue
		}
		r.byName[name] = &Entry{
			Name:        name,
			Fingerprint: p.Fingerprint(),
			Source:      string(src),
			Prog:        p,
			Stored:      true,
		}
	}
	return r, nil
}

// Add registers a validated program under its content-derived name and
// persists canon, its canonical (disassembled) source. It is
// idempotent: re-submitting an already registered program returns the
// existing entry with created=false. Persist failures keep the entry
// memory-resident (counted in SaveErrors) — ingestion succeeded,
// durability degraded, exactly like the artifact store's best-effort
// write-through.
func (r *Registry) Add(p *program.Program, canon string) (e *Entry, created bool) {
	fp := p.Fingerprint()
	name := WorkloadName(fp)

	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byName[name]; ok {
		return e, false
	}
	e = &Entry{Name: name, Fingerprint: fp, Source: canon, Prog: p}
	if r.dir != "" {
		if werr := writeAtomic(filepath.Join(r.dir, name+SourceExt), []byte(canon)); werr != nil {
			r.saveErrors++
		} else {
			e.Stored = true
		}
	}
	r.byName[name] = e
	return e, true
}

// Lookup returns the entry named name.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.byName[name]
	return e, ok
}

// List returns all entries sorted by name.
func (r *Registry) List() []*Entry {
	r.mu.RLock()
	out := make([]*Entry, 0, len(r.byName))
	for _, e := range r.byName {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered workloads.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// LoadErrors returns the number of persisted files skipped at open.
func (r *Registry) LoadErrors() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.loadErrors
}

// SaveErrors returns the number of failed persists.
func (r *Registry) SaveErrors() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.saveErrors
}

// writeAtomic writes via a temp file + rename, the same all-or-nothing
// discipline as the artifact store: a crashed or concurrent writer can
// never leave a half-written source to be loaded on the next boot.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".ingest-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
