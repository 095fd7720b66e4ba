package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API on a dedicated mux — nothing is
// registered on http.DefaultServeMux, so the API listener can never leak
// pprof or other default-mux handlers.
//
//	POST   /v1/jobs       submit a JobSpec; 202 + job, 400 on a bad spec,
//	                      429 + Retry-After when shed, 503 when draining
//	GET    /v1/jobs       list all jobs, newest first
//	GET    /v1/jobs/{id}  one job's state, and its result when done
//	GET    /v1/jobs/{id}/result  a done job's result bytes, verbatim
//	DELETE /v1/jobs/{id}  cancel: queued jobs immediately, running jobs
//	                      gracefully (in-flight points finish + journal)
//	GET    /healthz       process liveness (always 200)
//	GET    /readyz        admission readiness (503 while draining)
//	GET    /debug/vars    the process's expvars; cmd/nocsprintd publishes
//	                      its server's metrics there as "nocsprintd"
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Bound the body before reading a single byte of it.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	spec, err := ParseSpec(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("spec exceeds the %d-byte submission limit", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		// Admission control: shed with a hint instead of queuing unboundedly.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg)))
		writeError(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		s.mu.Lock()
		v := *job
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, v)
	}
}

func retryAfterSeconds(cfg Config) int {
	secs := int(cfg.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job id %q", id))
		return
	}
	v, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrNoSuchJob, id))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// handleResult serves a done job's result verbatim — the exact bytes the
// driver's result marshalled to, with no envelope or re-indentation — so
// two runs of the same spec can be compared byte for byte.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job id %q", id))
		return
	}
	v, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrNoSuchJob, id))
		return
	}
	if v.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, result available once done", id, v.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(v.Result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !jobIDPattern.MatchString(id) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job id %q", id))
		return
	}
	v, err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrNoSuchJob, id))
	case errors.Is(err, ErrJobTerminal):
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}
