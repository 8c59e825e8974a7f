package serve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"privinf/internal/obs"
)

// DebugServer is the live observability endpoint: it serves the process
// view (obs.Default merged with every live engine's, artifact registry's
// and router's own registry, plus what closed ones left behind) as
// Prometheus text at /metrics, a JSON snapshot at /statusz, and the stdlib
// profiler under /debug/pprof/.
// Wire it up with pirun -debug-addr or privinf.LocalEngineConfig;
// cmd/piload scrapes it to split its connect-latency report by phase.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
	reg *obs.Registry
	wg  sync.WaitGroup
}

// NewDebugServer listens on addr (":0" picks a free port — read it
// back with Addr) and serves until Close. Components built after it
// started appear in its view with no re-wiring.
func NewDebugServer(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: debug listener: %w", err)
	}
	d := &DebugServer{ln: ln, reg: obs.Default()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/statusz", d.handleStatusz)
	// pprof is wired explicitly onto this mux (importing net/http/pprof
	// only registers on http.DefaultServeMux, which we do not serve).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		// Serve returns ErrServerClosed (or a listener error) once Close
		// tears the listener down; either way the goroutine exits.
		d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the HTTP server and waits for its goroutine to exit.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	d.wg.Wait()
	return err
}

func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, d.reg)
}

func (d *DebugServer) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(w, `{"goroutines":%d,"heap_alloc_bytes":%d,"metrics":`,
		runtime.NumGoroutine(), m.HeapAlloc)
	obs.WriteJSON(w, d.reg)
	fmt.Fprint(w, "}")
}
