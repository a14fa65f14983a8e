package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
)

// Server is the live telemetry endpoint: metrics, pprof, the run
// registry, flight recordings, on-demand traces and an SSE event stream,
// all on one mux. Construct with New, feed it via Hook, expose it with
// Start (or mount Handler yourself).
type Server struct {
	Reg  *obs.Registry
	Runs *RunRegistry

	hub *hub
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// New builds a server around reg (a fresh registry if nil) with a
// default-capacity run registry.
func New(reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		Reg:  reg,
		Runs: NewRunRegistry(0),
		hub:  newHub(),
		mux:  http.NewServeMux(),
	}
	describeMetrics(reg)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /runs/{id}/recording", s.handleRecording)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /events", s.handleEvents)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// describeMetrics attaches HELP text to the metrics this process family
// exposes, so a scrape is self-documenting.
func describeMetrics(reg *obs.Registry) {
	for name, help := range map[string]string{
		"engine_batches_total":         "batches dispatched by runner.Engine",
		"engine_jobs_total":            "jobs executed across all batches",
		"engine_queue_depth":           "jobs currently queued or running (rests at 0)",
		"engine_workers":               "worker pool size of the most recent batch",
		"engine_job_ns":                "per-job wall-clock latency in nanoseconds",
		"serve_runs_total":             "runs observed by the telemetry hook",
		"serve_runs_failed_total":      "observed runs that ended in a failure",
		"serve_flight_total":           "runs with a complete flight recording retained",
		"serve_flight_truncated_total": "runs that outgrew their flight recorder (no replayable tape)",
		"serve_sse_dropped_total":      "SSE events dropped on slow subscribers",
	} {
		reg.SetHelp(name, help)
	}
}

// Hook returns the runner.RunHook that feeds this server: each completed
// job is added to the run registry, counted in the metrics registry, and
// fanned out to SSE subscribers as a "run" event. The hook is safe for
// concurrent workers and never blocks on slow telemetry consumers.
func (s *Server) Hook() runner.RunHook {
	runs := s.Reg.Counter("serve_runs_total")
	failed := s.Reg.Counter("serve_runs_failed_total")
	flight := s.Reg.Counter("serve_flight_total")
	truncated := s.Reg.Counter("serve_flight_truncated_total")
	dropped := s.Reg.Counter("serve_sse_dropped_total")
	return func(info runner.RunInfo) {
		rec := s.Runs.Add(info)
		runs.Inc()
		if !rec.Completed {
			failed.Inc()
		}
		if rec.HasRecording {
			flight.Inc()
		}
		if rec.RecordingTruncated {
			truncated.Inc()
		}
		dropped.Add(int64(s.hub.publish("run", rec)))
	}
}

// Publish fans an application event (bench section boundaries, sweep
// progress, ...) out to SSE subscribers.
func (s *Server) Publish(event string, payload any) {
	s.Reg.Counter("serve_sse_dropped_total").Add(int64(s.hub.publish(event, payload)))
}

// FlushFlight writes retained failing-run recordings to dir (see
// RunRegistry.FlushFlight).
func (s *Server) FlushFlight(dir string) ([]string, error) {
	return s.Runs.FlushFlight(dir)
}

// Handler returns the server's mux for mounting into an existing server.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Close stops the listener and terminates SSE streams. Safe to call when
// Start was never called.
func (s *Server) Close() error {
	s.hub.close()
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Render to a buffer first so a mid-write snapshot error cannot emit a
	// half exposition with a 200 status.
	var b bytes.Buffer
	if err := s.Reg.WriteText(&b); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(b.Bytes())
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs, total, evicted := s.Runs.List()
	writeJSON(w, map[string]any{
		"total":    total,
		"evicted":  evicted,
		"retained": len(runs),
		"runs":     runs,
	})
}

// runID parses the {id} path value; a helper shared by the per-run routes.
func runID(r *http.Request) (int64, error) {
	return strconv.ParseInt(r.PathValue("id"), 10, 64)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, err := runID(r)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	rec, ok := s.Runs.Get(id)
	if !ok {
		http.Error(w, "no such run (evicted or never completed)", http.StatusNotFound)
		return
	}
	detail := map[string]any{"run": rec}
	if recording, _ := s.Runs.Recording(id); recording != nil {
		detail["recording"] = map[string]any{
			"picks":      recording.Picks(),
			"switches":   recording.Switches(),
			"segments":   len(recording.Segments),
			"moduleHash": recording.ModuleHash,
			"sched":      recording.SchedName,
		}
	}
	writeJSON(w, detail)
}

func (s *Server) handleRecording(w http.ResponseWriter, r *http.Request) {
	id, err := runID(r)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	rec, ok := s.Runs.Get(id)
	if !ok {
		http.Error(w, "no such run (evicted or never completed)", http.StatusNotFound)
		return
	}
	recording, _ := s.Runs.Recording(id)
	if recording == nil {
		msg := "run has no recording (engine ran without a flight recorder, or its watchdog stopped the run)"
		if rec.RecordingTruncated {
			msg = "flight recording truncated: only a prefix of the schedule was kept, which cannot replay"
		}
		http.Error(w, msg, http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename=%q`, replay.FileName(rec.ID, recording)))
	_, _ = w.Write(replay.Encode(recording))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := runID(r)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	recording, ok := s.Runs.Recording(id)
	if !ok {
		http.Error(w, "no such run (evicted or never completed)", http.StatusNotFound)
		return
	}
	if recording == nil {
		http.Error(w, "run has no replayable recording to trace", http.StatusConflict)
		return
	}
	mod, err := recording.Module()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	// Re-execute the recorded schedule with a trace sink attached; the
	// replay is deterministic, so the trace faithfully depicts the
	// original run without the original having paid for tracing.
	tracer := obs.NewTracer(0)
	_, _ = replay.Run(mod, recording, replay.RunOptions{Sink: tracer})
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, tracer.Events()); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": conair telemetry stream\n\n")
	flusher.Flush()

	events, cancel := s.hub.subscribe()
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			flusher.Flush()
		}
	}
}

// writeJSON renders v indented with a correct content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
