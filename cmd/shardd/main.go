// Command shardd runs one shard server of a distributed BINGO! deployment:
// a single store partition (in-memory, or disk-backed with -data-dir)
// behind the /rpc/v1/* wire protocol the coordinator speaks. It owns its
// partition's tiered store, write-ahead log, and snapshots; global state —
// merged idf, authority scores — is pushed in by the coordinator, never
// derived locally. See DESIGN.md "Distributed scatter-gather".
//
// The observability surface matches portald's: /healthz, /readyz (503
// while draining — the first step of a rolling restart), /metricsz, and
// the pprof profiler under /debug/pprof/.
//
// shardd shuts down gracefully on SIGINT/SIGTERM: readiness flips first
// so the coordinator's prober stops selecting it, in-flight RPCs drain
// under -drain-timeout, the store closes, and the process exits 0. A
// kill -9 instead is what the WAL is for: restart over the same -data-dir
// and every acknowledged batch is recovered.
//
// Usage:
//
//	shardd -listen :7001 [-data-dir shard1/]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/store"
)

func main() {
	listen := flag.String("listen", ":7001", "address to serve the shard RPC API on (use :0 for an ephemeral port)")
	portFile := flag.String("port-file", "", "write the bound listen address to this file once serving (for harnesses)")
	dataDir := flag.String("data-dir", "", "root of the partition's disk-backed tiered store (segments + write-ahead log); empty runs in-memory")
	storeShards := flag.Int("store-shards", 0, "local document sub-shards inside the partition (power of two, max 64; 0 = default 8)")
	memtableBudget := flag.Int64("memtable-budget", 0, "tiered store: per-shard bytes of hot documents before a freeze (0 = default 64 MiB)")
	compactFanout := flag.Int("compact-fanout", 0, "tiered store: size-tiered segment merge fanout (0 = default 4)")
	walSync := flag.Bool("wal-sync", true, "tiered store: fsync the write-ahead log at every ingest batch (acknowledged batches survive a crash)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: deadline for draining in-flight RPCs")
	flag.Parse()

	var st *store.Store
	var err error
	switch {
	case *dataDir != "":
		st, err = store.OpenTiered(*dataDir, *storeShards, store.TierOptions{
			MemtableBudget: *memtableBudget,
			WALSync:        *walSync,
			CompactFanout:  *compactFanout,
		})
		if err != nil {
			log.Fatal(err)
		}
		r := st.Recovery()
		fmt.Printf("tiered store recovered: %d segments (%d docs), %d WAL records (%d docs) in %s; %d docs durable\n",
			r.Segments, r.SegmentDocs, r.WALRecords, r.WALDocs, r.Elapsed, st.DurableDocs())
	default:
		st = store.NewSharded(*storeShards)
	}

	srv := rpc.NewServer(st)
	mux := http.NewServeMux()
	mux.Handle("/rpc/", srv.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !srv.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("/metricsz", metrics.Default().Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	hsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	srv.SetReady(true)

	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("shard server over %d documents on %s (RPC on /rpc/v1/, health on /healthz + /readyz, metrics on /metricsz)\n",
		st.NumDocs(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: readiness flips first (the coordinator's prober sees
	// it and stops selecting this server), then in-flight RPCs finish.
	stop()
	srv.SetReady(false)
	fmt.Println("shutting down: readiness flipped, draining in-flight RPCs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hsrv.Shutdown(shutdownCtx); err != nil {
		log.Fatalf("drain did not complete within %s: %v", *drainTimeout, err)
	}
	if err := st.Close(); err != nil {
		log.Fatalf("closing store: %v", err)
	}
	fmt.Println("shutdown complete")
}
