package service

import (
	"io"
	"net/http"

	"repro/internal/asm"
	"repro/internal/ingest"
)

// TenantHeader names the request header carrying the submitter's
// identity. Absent means ingest.DefaultTenant: anonymous submitters
// share one quota bucket instead of minting a fresh one per request.
const TenantHeader = "X-Tenant"

// IngestResponse answers POST /v1/workloads. Name is usable anywhere a
// built-in benchmark name is: /v1/predict, /v1/explore, /v1/workloads.
type IngestResponse struct {
	Name         string `json:"name"`         // content-addressed workload name
	Fingerprint  string `json:"fingerprint"`  // full program fingerprint
	Instructions int64  `json:"instructions"` // dynamic instructions profiled
	SourceBytes  int    `json:"source_bytes"` // canonical source size (what quotas bill)
	Created      bool   `json:"created"`      // first registration of this content
	Stored       bool   `json:"stored"`       // canonical source persisted for warm restart
	Resident     bool   `json:"resident"`     // profiled workload resident in memory
	Tenant       string `json:"tenant"`
}

// handleIngest serves POST /v1/workloads: untrusted assembly text in
// the body becomes a profiled, predictable workload — or a typed
// rejection. The gauntlet, in order of increasing cost:
//
//  1. tenant normalization and the shared request-body byte cap
//  2. static source/structural limits (ingest.Parse)
//  3. per-tenant quotas: an in-flight slot for the whole job, then a
//     storage charge keyed by the content-derived name (idempotent —
//     re-submitting held content is free; failures refund)
//  4. sandboxed profiling through the workload pool: concurrent
//     duplicate submissions singleflight onto one run, content already
//     in the artifact store rehydrates with zero execution, and a
//     fresh run is budget-capped, deadline-polled, panic-contained
//
// Success registers the canonical source so the workload survives a
// restart (201 on first registration, 200 for duplicates).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.ingSubmitted.Add(1)
	resp, fallback, err := s.ingestOne(r)
	if err != nil {
		s.ingRejected.Add(1)
		s.writeErr(w, err, fallback)
		return
	}
	s.ingAccepted.Add(1)
	status := http.StatusOK
	if resp.Created {
		s.ingCreated.Add(1)
		status = http.StatusCreated
	}
	writeJSON(w, status, resp)
}

// ingestOne runs one submission through the gauntlet, returning its
// response or an error with its fallback code.
func (s *Server) ingestOne(r *http.Request) (*IngestResponse, string, error) {
	tenant, err := ingest.CleanTenant(r.Header.Get(TenantHeader))
	if err != nil {
		return nil, codeBadRequest, err
	}
	// The shared MaxBytesReader cap (see count) surfaces here as
	// *http.MaxBytesError → payload_too_large.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, codeBadRequest, err
	}
	src := string(body)
	lim := s.cfg.Ingest
	if err := ingest.CheckSource(src, lim); err != nil {
		return nil, codeBadRequest, err
	}

	// Reserve the tenant's in-flight slot for everything that follows —
	// parsing included, so a tenant cannot parallelize parse bombs any
	// wider than profiling runs.
	release, err := s.quotas.Begin(tenant)
	if err != nil {
		return nil, codeQuotaExceeded, err
	}
	defer release()

	prog, err := ingest.Parse(src, lim)
	if err != nil {
		return nil, codeInvalidProgram, err
	}
	fp := prog.Fingerprint()
	name := ingest.WorkloadName(fp)
	canon := asm.Disassemble(prog)

	// Bill storage before profiling: quota rejections must cost the
	// server parsing, never a profiling run.
	charged, err := s.quotas.Charge(tenant, name, int64(len(canon)))
	if err != nil {
		return nil, codeQuotaExceeded, err
	}

	pw, err := s.admit(r.Context(), ingested(name, prog))
	if err != nil {
		// The workload never became servable; undo this tenant's bill.
		if charged {
			s.quotas.Refund(tenant, name)
		}
		return nil, codeInternal, err
	}

	entry, created := s.registry.Add(prog, canon)
	return &IngestResponse{
		Name:         name,
		Fingerprint:  fp,
		Instructions: pw.Prof.N,
		SourceBytes:  len(canon),
		Created:      created,
		Stored:       entry.Stored,
		Resident:     s.pool.Resident(name),
		Tenant:       tenant,
	}, "", nil
}
