// Command portald serves a crawl's data directory as a browsable information
// portal (topic tree, search with snippets, document views) — the paper's
// §6 "Web-service-based portal explorer" — plus the machine-facing query
// API the production serving path uses:
//
//   - GET /search?q=...&k=... answers JSON for API clients (anything not
//     asking for text/html); browsers get the HTML portal page. Both
//     pass the same admission gate.
//   - /healthz and /readyz expose liveness and readiness; /readyz flips to
//     503 as the first step of a drain, so rolling restarts stop traffic
//     before in-flight queries are drained.
//   - Query results are cached in an epoch-keyed result cache and guarded
//     by admission control (bounded in-flight + queue, 429 + Retry-After
//     beyond it). See DESIGN.md "Query serving path".
//
// Besides the portal UI, portald exposes the observability surface (see
// OPERATIONS.md): /metricsz (Prometheus text, or JSON with ?format=json),
// /tracez (recent per-page crawl spans), and the net/http/pprof profiler
// under /debug/pprof/.
//
// portald shuts down gracefully on SIGINT/SIGTERM: readiness flips first,
// in-flight requests drain under -drain-timeout, then the process exits 0.
//
// With -shards, portald runs as the stateless query coordinator of a
// distributed deployment instead: it owns no documents, fans /search out
// over the listed shardd servers (see cmd/shardd), merges global corpus
// statistics for exact idf, and answers degraded partial results when a
// shard is down. In coordinator mode /search is JSON-only (no HTML
// portal) but otherwise the same serve.API, cache and admission gate
// included, and -crawl mirrors the staging crawl into the shard servers
// through the ingest router. See DESIGN.md "Distributed scatter-gather".
//
// Usage:
//
//	portald -data-dir crawl/ [-listen :8090]
//	portald -crawl [-world small] [-listen :8090]
//	portald -shards http://h1:7001,http://h2:7001 [-crawl] [-listen :8090]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	bingo "github.com/bingo-search/bingo"
	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/coord"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/portal"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

var (
	crawl             = flag.Bool("crawl", false, "run a fresh synthetic-web crawl instead of serving an existing -data-dir")
	worldFlag         = flag.String("world", "small", "synthetic world size when -crawl is set")
	listen            = flag.String("listen", ":8090", "address to serve the portal on (use :0 for an ephemeral port)")
	portFile          = flag.String("port-file", "", "write the bound listen address to this file once serving (for harnesses)")
	chaosSeed         = flag.Int64("chaos-seed", 1, "seed for the deterministic fault-injection plane (with -crawl)")
	chaosProfile      = flag.String("chaos-profile", "off", "fault profile for the startup crawl: off, default, flaky, slow, poison or flap")
	storeShards       = flag.Int("store-shards", 0, "document partitions for the startup crawl's database (power of two, max 64; 0 = default 8)")
	dataDir           = flag.String("data-dir", "", "root of a disk-backed tiered store: segments + write-ahead log; with -crawl the crawl writes through it, alone it is opened and served")
	memtableBudget    = flag.Int64("memtable-budget", 0, "tiered store: bytes of hot documents across the store; a shard freezes at its share, the budget ÷ shards (0 = default 64 MiB)")
	compactFanout     = flag.Int("compact-fanout", 0, "tiered store: segment merge fanout, the number of same-tier segments merged into one; a segment's tier is the log of the freezes it holds (0 = default 4)")
	walSync           = flag.Bool("wal-sync", true, "tiered store: fsync the write-ahead log at every crawl flush (acknowledged documents survive a crash)")
	scheduler         = flag.String("scheduler", "", "startup crawl's frontier ordering policy: fifo-priority (default) or link-context")
	frontierBudget    = flag.Int("frontier-budget", 0, "startup crawl: max frontier links held in memory; the tail spills to sorted on-disk runs (0 = unbounded)")
	cacheEntries      = flag.Int("cache-entries", 4096, "query-result cache capacity in entries (0 disables the cache)")
	tenantNames       multiFlag
	retrainInterval   = flag.Duration("retrain-interval", 0, "background retrainer period (with -crawl): retrain every tenant off-thread and atomically swap in the new classifier ensemble (0 disables)")
	maxInFlight       = flag.Int("max-inflight", 64, "admission control: concurrently served search requests")
	tenantMaxInFlight = flag.Int("tenant-max-inflight", 0, "admission control: per-tenant cap on concurrently served search requests; a hot tenant sheds its own traffic without consuming global queue capacity (0 disables)")
	maxQueue          = flag.Int("max-queue", 128, "admission control: queued search requests beyond -max-inflight (-1 for none)")
	queueTimeout      = flag.Duration("queue-timeout", 100*time.Millisecond, "admission control: max wait in the queue before shedding")
	retryAfter        = flag.Duration("retry-after", time.Second, "Retry-After hint attached to shed (429) responses")
	drainTimeout      = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: deadline for draining in-flight requests")
	shards            = flag.String("shards", "", "comma-separated shardd base addresses; non-empty runs portald as the distributed query coordinator")
	rpcTimeout        = flag.Duration("rpc-timeout", 5*time.Second, "coordinator: per-attempt timeout for one shard RPC")
	hedgeAfter        = flag.Duration("hedge-after", 250*time.Millisecond, "coordinator: delay before hedging a slow idempotent shard RPC (negative disables)")
	probeInterval     = flag.Duration("probe-interval", 2*time.Second, "coordinator: background ping interval for reintegrating recovered shards (negative disables)")
)

func main() {
	flag.Var(&tenantNames, "tenant", "named portal tenant (repeatable, with -crawl): the world's seed bookmarks are partitioned round-robin across the named tenants, each crawling its own portal into the shared store")
	flag.Parse()

	// Both deployments answer /search through one serve.API with the same
	// cache and admission gate; only the Searcher behind it differs.
	opts := serve.Options{
		Admission: admit.New(admit.Options{
			MaxInFlight:       *maxInFlight,
			MaxQueue:          *maxQueue,
			QueueTimeout:      *queueTimeout,
			RetryAfter:        *retryAfter,
			TenantMaxInFlight: *tenantMaxInFlight,
		}),
	}
	if *cacheEntries > 0 {
		opts.Cache = servecache.New(*cacheEntries)
	}
	mux := http.NewServeMux()
	var api *serve.API
	var what, extra string
	var shutdown func() error
	if *shards != "" {
		c := startCoordinator()
		c.StartProber()
		defer c.StopProber()
		api = serve.NewFor(c, opts)
		mux.HandleFunc("/search", api.HandleSearch)
		what = fmt.Sprintf("coordinator over %d documents", c.TotalDocs())
		shutdown = func() error { return nil }
	} else {
		st, coreEng := openPortal()
		// One engine feeds both frontends so they share search snapshots.
		engine := search.New(st)
		api = serve.New(st, engine, opts)
		explorer := portal.NewWithEngine(st, engine)
		mux.Handle("/", explorer)
		mux.Handle("/search", portalSearch(api, explorer))
		// In crawl mode the engine owns the store (and the background
		// retrainer); Close stops every background goroutine before
		// closing it.
		shutdown = st.Close
		if coreEng != nil {
			mux.HandleFunc("/tenants", handleTenants(coreEng))
			extra = ", tenants on /tenants"
			shutdown = coreEng.Close
		}
		// Warm the serving path before announcing readiness, so the first
		// real query never pays the initial snapshot build.
		engine.Search(search.Query{Text: "warm"})
		what = fmt.Sprintf("portal over %d documents", st.NumDocs())
	}
	api.MountHealth(mux)
	daemon.MountOps(mux)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s on %s (API on /search, health on /healthz + /readyz, metrics on /metricsz, traces on /tracez, profiles on /debug/pprof/%s)\n",
		what, ln.Addr(), extra)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := daemon.Run(ctx, ln, mux, &api.Gate, *portFile, *drainTimeout); err != nil {
		log.Fatal(err)
	}
	if err := shutdown(); err != nil {
		log.Fatalf("shutting down: %v", err)
	}
	fmt.Println("shutdown complete")
}

// openPortal opens the single-process deployment's store: a fresh startup
// crawl with -crawl, returned with its live engine (for /tenants and the
// background retrainer), or the finished -data-dir database, with none.
func openPortal() (*store.Store, *bingo.Engine) {
	switch {
	case *crawl:
		eng, world, plane := startupCrawl(func(c *bingo.Config) {
			c.DataDir = *dataDir
			c.MemtableBudget = *memtableBudget
			c.CompactFanout = *compactFanout
			c.WALSync = *walSync
			c.Scheduler = *scheduler
			c.FrontierBudget = *frontierBudget
		})
		// With named tenants, the default tenant stays empty and each name
		// gets its own portal over a round-robin slice of the world's seed
		// bookmarks — different bookmark sets, one shared store.
		seeds := world.SeedURLs()
		for i, name := range tenantNames {
			var part []string
			for j := i; j < len(seeds); j += len(tenantNames) {
				part = append(part, seeds[j])
			}
			if len(part) == 0 {
				log.Fatalf("tenant %q: the world has only %d seeds for %d tenants", name, len(seeds), len(tenantNames))
			}
			if _, err := eng.AddTenant(name,
				[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: part}},
				world.GeneralPageURLs(50)); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("tenant %s: %d seed bookmarks\n", name, len(part))
		}
		if *retrainInterval > 0 && eng.StartRetrainer(*retrainInterval) {
			fmt.Printf("background retrainer: every %s (atomic ensemble swap, queries never wait)\n", *retrainInterval)
		}
		stopProgress := make(chan struct{})
		if *dataDir != "" {
			daemon.LogRecovery(eng.Store())
			// Durability progress: the smoke harness greps these lines to
			// know how many documents are crash-safe before it pulls the
			// plug mid-crawl.
			go func() {
				tick := time.NewTicker(250 * time.Millisecond)
				defer tick.Stop()
				last := int64(-1)
				for {
					select {
					case <-stopProgress:
						return
					case <-tick.C:
						if n := eng.Store().DurableDocs(); n != last {
							last = n
							fmt.Printf("crawl progress: %d docs durable\n", n)
						}
					}
				}
			}()
		}
		if len(tenantNames) > 0 {
			for _, name := range tenantNames {
				t, _ := eng.Tenant(name)
				if _, _, err := t.Run(context.Background()); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("tenant %s: crawl done, %d docs\n", name, t.Stats().Docs)
			}
		} else if _, _, err := eng.Run(context.Background()); err != nil {
			log.Fatal(err)
		}
		close(stopProgress)
		if *dataDir != "" {
			fmt.Printf("crawl progress: %d docs durable\n", eng.Store().DurableDocs())
		}
		if plane != nil {
			rt := eng.Runtime()
			fmt.Printf("chaos: quarantined %v, DNS failovers %d\n", rt.QuarantinedHosts, rt.DNSFailovers)
		}
		return eng.Store(), eng
	case *dataDir == "":
		flag.Usage()
		log.Fatal("need -data-dir or -crawl")
	}
	// Serve an existing tiered data directory: mmap the segments, replay
	// the WAL tails, done — cold start is O(WAL tail), not O(corpus).
	st, err := store.Open(*dataDir, *storeShards, store.TierOptions{
		MemtableBudget: *memtableBudget,
		WALSync:        *walSync,
		CompactFanout:  *compactFanout,
	})
	if err != nil {
		log.Fatal(err)
	}
	daemon.LogRecovery(st)
	return st, nil
}

// portalSearch is the single-process /search: browsers (Accept:
// text/html) get the portal's result page, everything else the JSON API,
// both behind the API's admission gate.
func portalSearch(api *serve.API, explorer http.Handler) http.HandlerFunc {
	html := api.Admitted(explorer)
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "text/html") {
			html.ServeHTTP(w, r)
			return
		}
		api.HandleSearch(w, r)
	}
}

// multiFlag is a repeatable string flag (e.g. -tenant a -tenant b).
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// handleTenants is the /tenants admin endpoint: GET lists every tenant's
// operational stats as JSON; POST creates a portal at runtime
// (?id=NAME&topic=a/b&seeds=url1,url2&others=url1,url2), after which the
// operator drives it through feedback or a future crawl.
func handleTenants(eng *bingo.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = json.NewEncoder(w).Encode(eng.TenantStats())
		case http.MethodPost:
			q := r.URL.Query()
			topic := q.Get("topic")
			if topic == "" {
				topic = "databases"
			}
			t, err := eng.AddTenant(q.Get("id"),
				[]bingo.TopicSpec{{Path: strings.Split(topic, "/"), Seeds: splitAddrs(q.Get("seeds"))}},
				splitAddrs(q.Get("others")))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.WriteHeader(http.StatusCreated)
			_ = json.NewEncoder(w).Encode(t.Stats())
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	}
}

// splitAddrs parses the -shards flag into trimmed, non-empty addresses.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// startupCrawl generates the -world synthetic web and builds the engine
// for the startup crawl over its seed bookmarks, behind the -chaos-profile
// fault plane (nil when off); mode adds what the serving mode needs.
func startupCrawl(mode func(*bingo.Config)) (*bingo.Engine, *bingo.World, *faults.Plane) {
	wcfg, err := corpus.ConfigByName(*worldFlag)
	if err != nil {
		log.Fatal(err)
	}
	world := bingo.GenerateWorld(wcfg)
	fmt.Println(world)
	plane, err := faults.NewByName(*chaosProfile, *chaosSeed)
	if err != nil {
		log.Fatal(err)
	}
	if plane != nil {
		fmt.Printf("chaos: profile=%s seed=%d\n", *chaosProfile, *chaosSeed)
	}
	eng, err := bingo.EngineForWorld(world,
		[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		func(c *bingo.Config) {
			c.LearnBudget = 150
			c.HarvestBudget = 800
			c.StoreShards = *storeShards
			if plane != nil {
				c.Transport = plane.Wrap(c.Transport)
				c.DNSMiddleware = plane.WrapDNS
			}
			mode(c)
		})
	if err != nil {
		log.Fatal(err)
	}
	return eng, world, plane
}

// startCoordinator builds portald's distributed mode: no local documents,
// just the scatter-gather coordinator over the configured shard servers,
// synced once. With -crawl it first runs the staging crawl locally and
// mirrors every stored row into the shard servers through the ingest
// router, so the fleet ends up holding the corpus the crawl produced.
func startCoordinator() *coord.Coordinator {
	c, err := coord.New(splitAddrs(*shards), coord.Options{
		QueryTimeout:  *rpcTimeout,
		HedgeAfter:    *hedgeAfter,
		ProbeInterval: *probeInterval,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinator over %d shard servers: %s\n", c.NumShards(), strings.Join(c.Addrs(), ", "))

	if *crawl {
		router := coord.NewRouter(c.Clients(), coord.RouterOptions{
			// Small batches so durability acks (and the progress lines the
			// distributed smoke harness greps) track the crawl closely;
			// each batch is still one bulk load + one WAL fsync shard-side.
			BatchRows: 16,
			Progress: func(addr string, resp *rpc.InsertResponse) {
				// The distributed smoke harness greps these lines to know how
				// many documents each shard acknowledged as durable before it
				// kills one mid-crawl.
				fmt.Printf("ingest progress: shard %s: %d docs acked (%d durable)\n",
					addr, resp.NumDocs, resp.Durable)
			},
		})
		eng, _, _ := startupCrawl(func(c *bingo.Config) { c.Sink = router })
		if _, _, err := eng.Run(context.Background()); err != nil {
			log.Fatal(err)
		}
		if err := router.Close(); err != nil {
			fmt.Printf("ingest: delivery errors during crawl (fleet is degraded): %v\n", err)
		}
		for _, a := range router.Acks() {
			fmt.Printf("ingest complete: shard %s: %d docs acked (%d durable), %d rows dropped\n",
				a.Addr, a.NumDocs, a.Durable, a.DroppedRows)
		}
	}

	syncCtx, cancelSync := context.WithTimeout(context.Background(), 60*time.Second)
	if err := c.Sync(syncCtx); err != nil {
		// Keep serving: every query answers 503 until a shard comes back
		// and the prober folds it in.
		fmt.Printf("initial stats sync failed (serving 503 until shards appear): %v\n", err)
	} else {
		fmt.Printf("stats sync complete: version %s over %d documents\n", c.Version(), c.TotalDocs())
	}
	cancelSync()

	return c
}
