// Package trace defines the dynamic-instruction stream produced by the
// functional simulator and consumed by the profiler, the cache and
// branch-predictor simulators and the detailed pipeline simulator.
//
// The functional simulator records a run straight into the chunked,
// dictionary-encoded Trace store (see store.go) through a Builder, at
// one store per instruction and a second for a load or store's
// address; the trace is then replayed across every machine
// configuration of interest. Every reader walks its columns chunk by
// chunk (Chunks, or the cancellable EachChunk).
package trace
