package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/ingest"
	"repro/internal/par"
)

// Error taxonomy codes. Every failing response carries exactly one of
// these in {"error":{"code":...}}, so clients and load balancers can
// branch on machine-readable causes instead of parsing messages.
const (
	codeBadRequest   = "bad_request"       // 400: the request itself is malformed
	codeNotFound     = "not_found"         // 404: unknown benchmark
	codeOverloaded   = "overloaded"        // 429: shed by the admission queue; retry later
	codeInternal     = "internal"          // 500: a compute path failed
	codePanic        = "panic"             // 500: a handler panicked (recovered)
	codeCancelled    = "cancelled"         // 503: the client went away mid-request
	codeDeadline     = "deadline_exceeded" // 503: the per-endpoint deadline elapsed
	codeShuttingDown = "shutting_down"     // 503: queued behind a draining server

	// Ingestion codes (POST /v1/workloads and the shared body cap).
	codePayloadTooLarge = "payload_too_large" // 413: body or source over the byte cap
	codeInvalidProgram  = "invalid_program"   // 400: submission failed parse/structural limits
	codeBudgetExceeded  = "budget_exceeded"   // 422: submission blew its execution budget
	codeExecFailed      = "execution_failed"  // 422: submission faulted while executing
	codeQuotaExceeded   = "quota_exceeded"    // 429: tenant over a storage/concurrency quota
)

// codeStatus maps taxonomy codes to their HTTP statuses.
var codeStatus = map[string]int{
	codeBadRequest:   http.StatusBadRequest,
	codeNotFound:     http.StatusNotFound,
	codeOverloaded:   http.StatusTooManyRequests,
	codeInternal:     http.StatusInternalServerError,
	codePanic:        http.StatusInternalServerError,
	codeCancelled:    http.StatusServiceUnavailable,
	codeDeadline:     http.StatusServiceUnavailable,
	codeShuttingDown: http.StatusServiceUnavailable,

	codePayloadTooLarge: http.StatusRequestEntityTooLarge,
	codeInvalidProgram:  http.StatusBadRequest,
	codeBudgetExceeded:  http.StatusUnprocessableEntity,
	codeExecFailed:      http.StatusUnprocessableEntity,
	codeQuotaExceeded:   http.StatusTooManyRequests,
}

// classify maps an error to its taxonomy code. Lifecycle errors —
// cancellation, deadlines, shed load, a draining queue — win over the
// handler's fallback, because they can surface from any depth of the
// compute stack wrapped in arbitrary context.
func classify(err error, fallback string) string {
	// Ingestion verdicts come first: the sandbox has already separated
	// the submission's own budget overrun (ErrBudget) from the request's
	// lifecycle (raw ctx.Err()), so a wall-clock-killed program must not
	// be re-filed under deadline_exceeded below.
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig), errors.Is(err, ingest.ErrTooLarge):
		return codePayloadTooLarge
	case errors.Is(err, ingest.ErrQuota):
		return codeQuotaExceeded
	case errors.Is(err, ingest.ErrBudget):
		return codeBudgetExceeded
	case errors.Is(err, ingest.ErrRuntime):
		return codeExecFailed
	case errors.Is(err, ingest.ErrInvalid):
		return codeInvalidProgram
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return codeDeadline
	case errors.Is(err, context.Canceled):
		return codeCancelled
	case errors.Is(err, par.ErrQueueFull), errors.Is(err, par.ErrQueueWait):
		return codeOverloaded
	case errors.Is(err, par.ErrQueueClosed):
		return codeShuttingDown
	}
	return fallback
}

// ErrorBody is the JSON shape of every failing response.
type ErrorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// errorBody classifies err against the taxonomy (fallback names the
// handler's own diagnosis), bumps the matching counters and returns
// the body that reports it: a response (writeErr) or the last line of
// an NDJSON stream whose status is long gone.
func (s *Server) errorBody(err error, fallback string) ErrorBody {
	var body ErrorBody
	body.Error.Code = classify(err, fallback)
	body.Error.Message = err.Error()
	s.errCount.Add(1)
	switch body.Error.Code {
	case codeCancelled:
		s.cancelled.Add(1)
	case codeDeadline:
		s.deadlineExceeded.Add(1)
	}
	return body
}

// writeErr answers with err's error body. Shed responses carry
// Retry-After so well-behaved clients back off.
func (s *Server) writeErr(w http.ResponseWriter, err error, fallback string) {
	body := s.errorBody(err, fallback)
	w.Header().Set("Content-Type", "application/json")
	if body.Error.Code == codeOverloaded {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(codeStatus[body.Error.Code])
	_ = json.NewEncoder(w).Encode(body)
}
