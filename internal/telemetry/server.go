// The embeddable HTTP plane (stdlib net/http only). Endpoints:
//
//	/metrics      Prometheus text exposition (see prom.go)
//	/healthz      JSON rollup of internal/health counters; 503 when any
//	              NaN/Inf was detected or an iterative solver exhausted
//	              its budget without converging
//	/events       Server-Sent Events stream of structured step events,
//	              globally ordered by seq; ?replay=n prepends up to n
//	              recent events on connect
//	/debug/pprof  the standard runtime profiles
//
// The same mux is exposed as Handler() so koala-serve can mount the
// plane per tenant instead of opening a port per run.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"gokoala/internal/health"
	"gokoala/internal/obs"
)

// HealthStatus is the /healthz response body.
type HealthStatus struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Policy is the active NaN/Inf guard policy (off|count|error).
	Policy string `json:"policy"`
	// Counters are the always-on numerical-health counters.
	Counters map[string]int64 `json:"counters"`
	// UptimeSeconds counts from SetRunInfo.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Component is the run info component name, when set.
	Component string `json:"component,omitempty"`
	// Ranks is the per-rank liveness of an attached multi-process
	// transport (see RankHeartbeat/MarkRankDead); omitted for
	// single-process runs.
	Ranks []RankHealth `json:"ranks,omitempty"`
}

// CurrentHealth snapshots the health rollup: degraded when any NaN/Inf
// detection or solver non-convergence has been counted, or when any
// registered rank process is down.
func CurrentHealth() HealthStatus {
	st := HealthStatus{
		Status: "ok",
		Policy: health.CurrentPolicy().String(),
		Counters: map[string]int64{
			"nan_detected":        health.NaNDetected(),
			"svd_fallbacks":       health.SVDFallbacks(),
			"gram_fallbacks":      health.GramFallbacks(),
			"nonconverged":        health.Nonconverged(),
			"checkpoint_failures": health.CheckpointFailures(),
		},
	}
	if st.Counters["nan_detected"] > 0 || st.Counters["nonconverged"] > 0 {
		st.Status = "degraded"
	}
	st.Ranks = RankHealths()
	for _, r := range st.Ranks {
		if !r.Up {
			st.Status = "degraded"
		}
	}
	component, _, start := RunInfo()
	st.Component = component
	if !start.IsZero() {
		st.UptimeSeconds = time.Since(start).Seconds()
	}
	return st
}

// Handler returns the telemetry plane as an http.Handler rooted at "/".
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/events", handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "koala telemetry plane: /metrics /healthz /events /debug/pprof")
	})
	return mux
}

func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w)
}

func handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := CurrentHealth()
	w.Header().Set("Content-Type", "application/json")
	if st.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// handleEvents streams structured step events as SSE. Each event is
// written as `id: <seq>`, `event: <kind>`, and a JSON `data:` payload.
func handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replayN := 0
	if s := r.URL.Query().Get("replay"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad replay count", http.StatusBadRequest)
			return
		}
		replayN = n
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	ch, replay, cancel := Subscribe(256)
	defer cancel()

	writeEvent := func(ev Event) bool {
		b, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Orientation event so a watcher can label the run before the first
	// step arrives.
	component, labels, start := RunInfo()
	hello := map[string]interface{}{"component": component, "labels": labels}
	if !start.IsZero() {
		hello["uptime_seconds"] = time.Since(start).Seconds()
	}
	if b, err := json.Marshal(hello); err == nil {
		fmt.Fprintf(w, "event: run\ndata: %s\n\n", b)
		fl.Flush()
	}
	if replayN > 0 {
		if replayN < len(replay) {
			replay = replay[len(replay)-replayN:]
		}
		for _, ev := range replay {
			if !writeEvent(ev) {
				return
			}
		}
	}

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !writeEvent(ev) {
				return
			}
		case <-heartbeat.C:
			// SSE comment keeps idle proxies from closing the stream.
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// Server is a running telemetry listener.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Serve starts the telemetry plane on addr (":9090", "127.0.0.1:0", ...).
// What it serves is the obs registry, so it turns collection on (registry
// only: no sink, no spans) unless -trace/-metrics already did; the run
// then ends it with obs.Disable as usual.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	Reset()
	if !obs.Enabled() {
		obs.Enable()
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		// ErrServerClosed is the normal Close path; anything else left
		// the plane dead mid-run, worth a stderr line but never fatal to
		// the simulation.
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Printf("telemetry: server stopped: %v\n", err)
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (resolving a requested :0 port).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the listener down, waiting briefly for in-flight scrapes.
// Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
	}
	return err
}
