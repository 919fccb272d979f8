package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/ingest"
	"repro/internal/program"
	"repro/internal/workloads"
)

// A job is a parsed compute request: the worker tokens it asks for and
// its computation, which returns the value to encode. A streaming
// job's answer is NDJSON, and compute may send lines before its last.
type job struct {
	tokens  int
	stream  bool
	compute func(ctx context.Context, pw *harness.Profiled, n int, out *reply) (any, error)
}

// lifecycle is the handler of a compute endpoint, which supplies only
// the parameter names it allows and its parse step. Every request is
// parsed (faults answer 400; a fleet member proxies a workload it does
// not own once bench is known), admitted (the workload resolved and, if
// need be, profiled before the job's tokens are taken, all under the
// endpoint's deadline), computed and encoded.
func (s *Server) lifecycle(timeout *time.Duration, params func(url.Values) ([]string, error), parse func(q url.Values, bench string) (job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		allowed, err := params(q)
		if err == nil {
			err = checkParams(q, allowed)
		}
		bench := q.Get("bench")
		if err == nil && bench == "" {
			err = errors.New("missing required parameter bench")
		}
		if err != nil {
			s.writeErr(w, err, codeBadRequest)
			return
		}
		if s.proxyToOwner(w, r, bench) {
			return
		}
		j, err := parse(q, bench)
		if err != nil {
			s.writeErr(w, err, codeBadRequest)
			return
		}

		sv, err := s.lookup(bench)
		if err != nil {
			s.writeErr(w, err, codeNotFound)
			return
		}
		ctx, cancel := deadlineCtx(r, *timeout)
		defer cancel()
		pw, err := s.admit(ctx, sv)
		if err != nil {
			s.writeErr(w, err, codeInternal)
			return
		}
		n, err := s.queue.Acquire(ctx, j.tokens)
		if err != nil {
			s.writeErr(w, err, codeInternal)
			return
		}
		defer s.budget.Release(n)

		out := reply{w: w}
		v, err := j.compute(ctx, pw, n, &out)
		switch {
		case err != nil && out.sent:
			_ = out.line(SearchErrorLine{Type: "error", ErrorBody: s.errorBody(err, codeInternal)})
		case err != nil:
			s.writeErr(w, err, codeInternal)
		case j.stream:
			_ = out.line(v)
		default:
			writeJSON(w, http.StatusOK, v)
		}
	}
}

// reply is the NDJSON side of the encode step.
type reply struct {
	w    http.ResponseWriter
	sent bool // a line has been written, and with it the status
}

// line writes v as one NDJSON line and flushes it.
func (out *reply) line(v any) error {
	if !out.sent {
		out.w.Header().Set("Content-Type", "application/x-ndjson")
		out.sent = true
	}
	if err := json.NewEncoder(out.w).Encode(v); err != nil {
		return err
	}
	if f, ok := out.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// writeJSON answers with status and v as one indented JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// deadlineCtx derives the handler context: the request's own context
// (cancelled when the client disconnects) plus the endpoint's
// deadline, when one is configured.
func deadlineCtx(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// checkParams rejects query parameters outside the endpoint's
// contract: a misspelled name (predictor=, l2_kb=) would otherwise be
// silently dropped and its default substituted, and a repeated one
// read as its first value — wrong numbers with a 200, from a service
// whose decoding is strict everywhere else. Of several faulty names
// the least one is reported, so a request always gets the same answer
// however the map orders its keys.
func checkParams(q url.Values, allowed []string) error {
	bad, found := "", false
	for k, vs := range q {
		if (len(vs) > 1 || !slices.Contains(allowed, k)) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	switch {
	case !found:
		return nil
	case !slices.Contains(allowed, bad):
		return fmt.Errorf("unknown parameter %q (allowed: %v)", bad, allowed)
	default:
		return fmt.Errorf("parameter %s is given %d times; give it once", bad, len(q[bad]))
	}
}

// boolParam parses a boolean query parameter (absent means false),
// rejecting unparsable spellings with an error — consistent with the
// strict Table 2 decoding of the numeric parameters.
func boolParam(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("parameter %s=%q is not a boolean", name, v)
	}
	return b, nil
}

// intParam parses an integer query parameter, returning def when
// absent and rejecting a value T cannot hold.
func intParam[T int | int64](q url.Values, name string, def T) (T, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || int64(T(n)) != n {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return T(n), nil
}

// A servable is one name the service answers to: a compiled-in
// benchmark, or an ingested workload (domain IngestedDomain), whose
// program stays untrusted.
type servable struct {
	name, domain string
	build        func() *program.Program
}

// servables lists every name the service answers to: the compiled-in
// benchmarks, then the ingested workloads.
func (s *Server) servables() []servable {
	var out []servable
	for _, spec := range workloads.All() {
		out = append(out, servable{name: spec.Name, domain: spec.Domain, build: spec.Build})
	}
	for _, e := range s.registry.List() {
		out = append(out, ingested(e.Name, e.Prog))
	}
	return out
}

func ingested(name string, prog *program.Program) servable {
	return servable{name: name, domain: IngestedDomain, build: func() *program.Program { return prog }}
}

// lookup resolves one name to what the service serves under it.
func (s *Server) lookup(name string) (servable, error) {
	spec, err := workloads.ByName(name)
	if err == nil {
		return servable{name: spec.Name, domain: spec.Domain, build: spec.Build}, nil
	}
	if e, ok := s.registry.Lookup(name); ok {
		return ingested(e.Name, e.Prog), nil
	}
	return servable{}, err
}

// workloadID returns the artifact identity of sv under this server's
// configuration. The fingerprint is memoized by name (an ingested name
// names its content), so listings build each program once per process.
func (s *Server) workloadID(sv servable) artifact.WorkloadID {
	code, ok := s.ids.Load(sv.name)
	if !ok {
		code = sv.build().Fingerprint()
		s.ids.Store(sv.name, code)
	}
	return artifact.WorkloadID{Name: sv.name, MinDynInsts: s.cfg.MinDynInsts, Code: code.(string)}
}

// admit returns sv's resident profile, profiling it on a miss. The
// profiling run executes under the admission's work context — shared
// by every singleflight waiter, alive as long as any of them stays,
// cancelled when the last one leaves — and draws its worker token
// through the admission queue, so profiling load is shed like any
// other work. Singleflight waiters park tokenless, so requests for
// resident workloads are never stalled behind an unrelated profiling
// queue.
func (s *Server) admit(ctx context.Context, sv servable) (*harness.Profiled, error) {
	return s.pool.GetBuiltCtx(ctx, sv.name, sv.build, func(wctx context.Context, prog *program.Program) (*harness.Profiled, error) {
		n, err := s.queue.Acquire(wctx, 1)
		if err != nil {
			return nil, err
		}
		defer s.budget.Release(n)
		if sv.domain != IngestedDomain {
			return harness.ProfileProgramScaledCtx(wctx, prog, s.cfg.MinDynInsts)
		}
		// Evicted, never-stored and first-time ingested programs all
		// profile under the sandbox budgets of a first submission:
		// registration does not promote a program to trusted.
		pw, err := ingest.Profile(wctx, prog, s.cfg.MinDynInsts, s.cfg.Ingest)
		if err != nil {
			return nil, err
		}
		// The program was assembled under the canonical content name;
		// the resident entry answers to the public one.
		pw.Name = sv.name
		return pw, nil
	})
}
