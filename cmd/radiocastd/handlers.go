package main

// The HTTP surface. Two muxes: the API mux (jobs, SSE, metrics,
// health) and the ops mux (same metrics/health plus net/http/pprof),
// so profiling endpoints never ride the job-facing port.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"

	"radiocast/internal/obs"
)

// server bundles the handler dependencies.
type server struct {
	mgr     *Manager
	metrics *obs.Registry
	ready   atomic.Bool
}

// newServer wires the process gauges and returns the handler bundle.
func newServer(mgr *Manager, reg *obs.Registry) *server {
	s := &server{mgr: mgr, metrics: reg}
	reg.GaugeFunc("radiocastd_heap_alloc_bytes", "live heap bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.GaugeFunc("radiocastd_goroutines", "goroutine count", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	s.ready.Store(true)
	return s
}

// apiMux is the job-facing mux.
func (s *server) apiMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.addOps(mux)
	return mux
}

// opsMux carries metrics/health plus pprof.
func (s *server) opsMux() *http.ServeMux {
	mux := http.NewServeMux()
	s.addOps(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *server) addOps(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a POST /v1/jobs body; larger bodies get 413.
const maxSpecBytes = 1 << 20

// decodeSpec reads one job spec, rejecting unknown fields.
func decodeSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad job spec: %w", err))
		return
	}
	job, err := s.mgr.Submit(spec)
	if err != nil {
		var se *specError
		if errors.As(err, &se) {
			writeError(w, http.StatusBadRequest, err)
		} else {
			writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": job.ID, "state": StateQueued})
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.Jobs()})
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.mgr.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

// handleEvents streams the job's progress as Server-Sent Events:
// replayed history first, then live events until the job finishes or
// the client hangs up. Event types ride the SSE `event:` field
// (state, round, epoch, done, failed); data is the Event JSON.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := s.mgr.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	replay, live, cancel := job.subscribe()
	defer cancel()
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
	}
	fl.Flush()
	if live == nil { // job already terminal: history is complete
		return
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // job finished; history already carried the done event
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}
