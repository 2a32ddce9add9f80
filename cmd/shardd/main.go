// Command shardd runs one shard server of a distributed BINGO! deployment:
// a single store partition (in-memory, or disk-backed with -data-dir)
// behind the /rpc/v1/* wire protocol the coordinator speaks. It owns its
// partition's tiered store, write-ahead log, and snapshots; global state —
// merged idf, authority scores — is pushed in by the coordinator, never
// derived locally. See DESIGN.md "Distributed scatter-gather".
//
// The observability surface is portald's: /healthz, /readyz (503 while
// draining — the first step of a rolling restart), /metricsz, /tracez, and
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bingo-search/bingo/internal/daemon"
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

	st, err := store.Open(*dataDir, *storeShards, store.TierOptions{
		MemtableBudget: *memtableBudget,
		WALSync:        *walSync,
		CompactFanout:  *compactFanout,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		daemon.LogRecovery(st)
	}

	srv := rpc.NewServer(st)
	mux := http.NewServeMux()
	mux.Handle("/rpc/", srv.Handler())
	srv.MountHealth(mux)
	daemon.MountOps(mux)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard server over %d documents on %s (RPC on /rpc/v1/, health on /healthz + /readyz, metrics on /metricsz, traces on /tracez, profiles on /debug/pprof/)\n",
		st.NumDocs(), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, ln, mux, &srv.Gate, *portFile, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	if err := st.Close(); err != nil {
		log.Fatalf("closing store: %v", err)
	}
	fmt.Println("shutdown complete")
}
