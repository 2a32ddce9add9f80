// Package daemon is the skeleton the three long-running processes share —
// portald, portald -shards and shardd: one readiness gate with its /healthz
// and /readyz handlers, one ops surface (metrics, traces, profiler), one
// recovery report, and one serve-and-drain loop.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// Gate is a daemon's readiness gate. A daemon starts not-ready; Run sets it
// ready once serving and flips it back as the first step of a drain, so
// load balancers and the coordinator's prober stop routing new requests
// before in-flight ones are drained.
type Gate struct{ ready atomic.Bool }

// SetReady flips what /readyz reports.
func (g *Gate) SetReady(ready bool) { g.ready.Store(ready) }

// Ready reports the readiness state.
func (g *Gate) Ready() bool { return g.ready.Load() }

// MountHealth registers /healthz (200 while the process serves) and /readyz
// (200 when ready, 503 during startup and drain) on mux.
func (g *Gate) MountHealth(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !g.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
}

// MountOps registers the observability surface every daemon serves (see
// OPERATIONS.md): /metricsz, /tracez and the net/http/pprof profiler under
// /debug/pprof/.
func MountOps(mux *http.ServeMux) {
	mux.HandleFunc("/metricsz", metrics.Default().Handler())
	mux.HandleFunc("/tracez", metrics.TraceHandler(metrics.DefaultTrace()))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// LogRecovery reports on stdout what a tiered store's open reconstructed
// from disk.
func LogRecovery(st *store.Store) {
	r := st.Recovery()
	fmt.Printf("tiered store recovered: %d segments (%d docs), %d WAL records (%d docs) in %s; %d docs durable\n",
		r.Segments, r.SegmentDocs, r.WALRecords, r.WALDocs, r.Elapsed, st.DurableDocs())
}

// Run serves h on ln until ctx ends, then drains. It sets gate ready and
// writes ln's address to portFile (when non-empty) before serving, so a
// harness that waits for the file finds the daemon ready. When ctx ends —
// mains pass signal.NotifyContext for SIGINT/SIGTERM — readiness flips to
// 503 before Shutdown starts, and in-flight requests get drainTimeout to
// finish. Run returns nil after a complete drain.
func Run(ctx context.Context, ln net.Listener, h http.Handler, gate *Gate, portFile string, drainTimeout time.Duration) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	gate.SetReady(true)
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	gate.SetReady(false)
	fmt.Println("shutting down: readiness flipped, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain did not complete within %s: %w", drainTimeout, err)
	}
	return nil
}
