package harness

import (
	"context"

	"repro/internal/artifact"
	"repro/internal/program"
)

// AttachArtifacts gives the workload a persistent annotation tier: the
// store holds this workload's trace/profile under key, and the plane
// cache (EnsureAnnotatedCtx / AnnotationCtx) will rehydrate per-component
// planes from it before computing and write freshly computed planes
// through to it. Attach before sharing pw across goroutines — the
// fields are read without locking on the annotation paths.
func (pw *Profiled) AttachArtifacts(s *artifact.Store, key string) {
	pw.store = s
	pw.storeKey = key
}

// ArtifactKey returns the content key this workload's artifacts live
// under ("" when no store is attached).
func (pw *Profiled) ArtifactKey() string { return pw.storeKey }

// ProfileProgramCached is ProfileProgramScaledCtx behind the artifact
// store: a valid stored artifact rehydrates the workload without
// executing it (bit-identical — the codecs round-trip the trace and
// profile exactly), a miss profiles fresh and writes through. The
// returned flag reports whether the workload came from disk. A nil
// store degrades to plain profiling. The build func always runs once
// — the artifact identity includes the built program's content
// fingerprint, so stale traces are unreachable after a kernel edit —
// but a warm caller still skips the expensive part, the execution.
func ProfileProgramCached(store *artifact.Store, name string, minDyn int64, build func() *program.Program) (*Profiled, bool, error) {
	prog := build()
	id := artifact.WorkloadID{Name: name, MinDynInsts: minDyn, Code: prog.Fingerprint()}
	if store != nil {
		if tr, prof, err := store.LoadWorkload(id); err == nil {
			pw := &Profiled{Name: name, Trace: tr, Prof: prof}
			pw.AttachArtifacts(store, store.WorkloadKey(id))
			return pw, true, nil
		}
		// Missing or unusable artifact: profile fresh either way.
	}
	pw, err := ProfileProgramScaledCtx(context.Background(), prog, minDyn)
	if err != nil {
		return nil, false, err
	}
	if store != nil {
		if key, serr := store.SaveWorkload(id, pw.Trace, pw.Prof); serr == nil && key != "" {
			pw.AttachArtifacts(store, key)
		}
	}
	return pw, false, nil
}
