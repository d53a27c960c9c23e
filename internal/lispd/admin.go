package lispd

// The admin endpoint: a config-gated HTTP listener exposing the daemon's
// observability surface — Prometheus metrics, liveness, a status snapshot
// of the running configuration and protocol state, the Go profiler, and
// the control-plane flight recorder. Read-only by construction: every
// handler serves a snapshot; none mutates daemon state.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/pcelisp/pcelisp/internal/lisp"
	"github.com/pcelisp/pcelisp/internal/overlay"
)

// adminServer owns the admin HTTP listener. The listener binds in New
// (bad addresses fail fast); Serve runs from Daemon.Start.
type adminServer struct {
	d   *Daemon
	ln  net.Listener
	srv *http.Server
}

func newAdminServer(d *Daemon, addr string) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("lispd: admin listen %q: %w", addr, err)
	}
	a := &adminServer{d: d, ln: ln}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metrics)
	mux.HandleFunc("/healthz", a.healthz)
	mux.HandleFunc("/readyz", a.readyz)
	mux.HandleFunc("/statusz", a.statusz)
	mux.HandleFunc("/flightrecorder", a.flightRecorder)
	// pprof's default-mux registrations are skipped (we never touch
	// http.DefaultServeMux), so wire the handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a.srv = &http.Server{Handler: mux}
	return a, nil
}

func (a *adminServer) start() { go a.srv.Serve(a.ln) }

func (a *adminServer) close() { a.srv.Close() }

func (a *adminServer) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.d.reg.WritePrometheus(w)
}

// running reports whether the daemon is started and not closing.
func (a *adminServer) running() bool {
	a.d.mu.Lock()
	defer a.d.mu.Unlock()
	return a.d.started && !a.d.closed
}

// probe answers a liveness or readiness check: "ok", or 503 and why not.
func probe(w http.ResponseWriter, ok bool, whyNot string) {
	if !ok {
		http.Error(w, whyNot, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// healthz is liveness: the process is up and the daemon running.
func (a *adminServer) healthz(w http.ResponseWriter, _ *http.Request) {
	probe(w, a.running(), "not running")
}

// readyDeadline is how long /readyz gives the loop to run its sentinel.
const readyDeadline = time.Second

// readyz is readiness, apart from liveness as CoreDNS keeps ready apart
// from health: the daemon is running and its loop is turning — a sentinel
// posted behind whatever is queued runs within readyDeadline. A daemon
// that is alive but wedged or buried in backlog is not ready.
func (a *adminServer) readyz(w http.ResponseWriter, _ *http.Request) {
	if !a.running() {
		probe(w, false, "not running")
		return
	}
	probe(w, a.d.onLoop(readyDeadline, func() {}), "loop unresponsive")
}

func (a *adminServer) flightRecorder(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	a.d.rec.WriteJSON(w)
}

// cacheSummary is /statusz's view of the xTR map-cache.
type cacheSummary struct {
	Entries int                `json:"entries"`
	Stats   lisp.MapCacheStats `json:"stats"`
}

// statusSnapshot is the /statusz document.
type statusSnapshot struct {
	Name   string              `json:"name"`
	Listen string              `json:"listen"`
	Roles  []string            `json:"roles"`
	Config *Config             `json:"config"`
	Peers  []overlay.PeerRoute `json:"peers"`
	Cache  *cacheSummary       `json:"cache,omitempty"`
	DNS    *FrontEndStats      `json:"dns,omitempty"`
}

// statusz reports the active config (secrets redacted), the peer table,
// and protocol summaries. Cache internals are read on the loop goroutine
// via a posted thunk; the timeout covers a daemon torn down mid-request,
// whose loop will never run the thunk.
func (a *adminServer) statusz(w http.ResponseWriter, _ *http.Request) {
	d := a.d
	cfg := d.config() // Reload swaps the pointer under d.mu
	st := statusSnapshot{
		Name:   cfg.Name,
		Listen: d.host.RealAddr().String(),
		Config: redactConfig(cfg),
		Peers:  d.host.Peers(),
	}
	if d.xtr != nil {
		st.Roles = append(st.Roles, "site")
	}
	if d.pce != nil {
		st.Roles = append(st.Roles, "pce")
	}
	if d.fe != nil {
		st.Roles = append(st.Roles, "dns")
		fes := d.fe.Stats()
		st.DNS = &fes
	}
	if d.xtr != nil {
		cs := new(cacheSummary)
		if !d.onLoop(2*time.Second, func() {
			*cs = cacheSummary{Entries: d.xtr.Cache.Len(), Stats: d.xtr.Cache.Stats()}
		}) {
			http.Error(w, "loop unresponsive", http.StatusServiceUnavailable)
			return
		}
		st.Cache = cs
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// redactConfig copies the active config with key secrets blanked: the
// endpoint reports which keys exist, never their material.
func redactConfig(cfg *Config) *Config {
	out := *cfg
	if len(cfg.Keys) > 0 {
		out.Keys = make([]KeyConfig, len(cfg.Keys))
		for i, k := range cfg.Keys {
			out.Keys[i] = KeyConfig{ID: k.ID, Secret: "<redacted>"}
		}
	}
	return &out
}
