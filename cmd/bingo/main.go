// Command bingo runs a complete focused crawl — bootstrap, learning phase,
// harvesting phase — against the built-in synthetic web, then answers a
// query over the crawl result. With -data-dir the crawl writes through a
// disk-backed tiered store and the run ends by saving a resumable session
// in that directory; -resume continues it, and cmd/bingosearch and
// cmd/portald read the same directory.
//
// Usage:
//
//	bingo [-world tiny|small|default] [-mode portal|expert]
//	      [-learn N] [-harvest N] [-query "words"] [-data-dir crawl/]
//	      [-metrics]
//	bingo -data-dir crawl/ -resume [-harvest N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	bingo "github.com/bingo-search/bingo"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/daemon"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/xmlexport"
)

func main() {
	worldFlag := flag.String("world", "small", "synthetic world size: tiny, small or default")
	mode := flag.String("mode", "portal", "portal (database-research crawl) or expert (ARIES needle search)")
	topicFile := flag.String("topics", "", "plain-text topic/seed file overriding -mode (one \"topic/path url\" per line)")
	bookmarkFile := flag.String("bookmarks", "", "Netscape bookmark file overriding -mode (folders become topics)")
	learnBudget := flag.Int64("learn", 100, "learning-phase page budget")
	harvestBudget := flag.Int64("harvest", 500, "harvesting-phase page budget")
	query := flag.String("query", "", "query to run against the crawl result (default depends on mode)")
	xmlOut := flag.String("xml", "", "path to export the crawl as semantically tagged XML")
	resume := flag.Bool("resume", false, "resume the session saved in -data-dir with -harvest more pages instead of starting fresh")
	showMetrics := flag.Bool("metrics", false, "dump process metrics (Prometheus text format) after the run")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the deterministic fault-injection plane")
	chaosProfile := flag.String("chaos-profile", "off", "fault profile: off, default, flaky, slow, poison or flap")
	storeShards := flag.Int("store-shards", 0, "document partitions in the crawl database (power of two, max 64; 0 = default 8)")
	dataDir := flag.String("data-dir", "", "root of a disk-backed tiered store (segments + write-ahead log); the crawl writes through it and the run ends by saving a resumable session there")
	memtableBudget := flag.Int64("memtable-budget", 0, "tiered store: per-shard bytes of hot documents before a freeze (0 = default 64 MiB)")
	compactFanout := flag.Int("compact-fanout", 0, "tiered store: size-tiered segment merge fanout (0 = default 4)")
	walSync := flag.Bool("wal-sync", true, "tiered store: fsync the write-ahead log at every crawl flush")
	scheduler := flag.String("scheduler", "", "frontier crawl-ordering policy: fifo-priority (default) or link-context")
	frontierBudget := flag.Int("frontier-budget", 0, "max frontier links held in memory; the tail spills to sorted on-disk runs (0 = unbounded)")
	flag.Parse()
	if *resume && *dataDir == "" {
		log.Fatal("-resume needs -data-dir: a session lives in the crawl's data directory")
	}

	plane, err := faults.NewByName(*chaosProfile, *chaosSeed)
	if err != nil {
		log.Fatal(err)
	}
	if plane != nil {
		fmt.Printf("chaos: profile=%s seed=%d\n", *chaosProfile, *chaosSeed)
	}

	wcfg, err := corpus.ConfigByName(*worldFlag)
	if err != nil {
		log.Fatal(err)
	}
	world := bingo.GenerateWorld(wcfg)
	fmt.Println(world)

	var topics []bingo.TopicSpec
	q := *query
	switch {
	case *topicFile != "":
		f, err := os.Open(*topicFile)
		if err != nil {
			log.Fatal(err)
		}
		topics, err = bingo.ParseTopicFile(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	case *bookmarkFile != "":
		f, err := os.Open(*bookmarkFile)
		if err != nil {
			log.Fatal(err)
		}
		topics, err = bingo.ParseBookmarks(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	if topics != nil && q == "" {
		q = "database recovery transaction"
	}
	if topics != nil {
		goto haveTopics
	}
	switch *mode {
	case "portal":
		topics = []bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}}
		if q == "" {
			q = "database recovery transaction"
		}
	case "expert":
		topics = []bingo.TopicSpec{{Path: []string{"aries"}, Seeds: world.ExpertSeedURLs()}}
		if q == "" {
			q = "source code release"
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

haveTopics:
	// One Config for a fresh run and a resume alike, so a resumed harvest
	// writes through the same tier as the crawl it continues.
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	cfg := bingo.Config{
		Topics:         topics,
		OthersURLs:     world.GeneralPageURLs(50),
		Transport:      world.RoundTripper(),
		DNSServers:     []bingo.DNSServerSpec{{Table: table}, {Table: table}, {Table: table}, {Table: table}, {Table: table}},
		LearnBudget:    *learnBudget,
		HarvestBudget:  *harvestBudget,
		StoreShards:    *storeShards,
		DataDir:        *dataDir,
		MemtableBudget: *memtableBudget,
		CompactFanout:  *compactFanout,
		WALSync:        *walSync,
		Scheduler:      *scheduler,
		FrontierBudget: *frontierBudget,
	}
	if *mode == "expert" {
		cfg.LearnDepth = 7
	}
	if plane != nil {
		cfg.Transport = plane.Wrap(cfg.Transport)
		cfg.DNSMiddleware = plane.WrapDNS
	}

	var eng *bingo.Engine
	if *resume {
		var lerr error
		eng, lerr = bingo.LoadSession(cfg)
		if lerr != nil {
			log.Fatal(lerr)
		}
		fmt.Printf("\nresumed session: %d documents, %d training docs\n",
			eng.Store().NumDocs(), eng.TrainingSize())
		stats, herr := eng.HarvestN(context.Background(), *harvestBudget)
		if herr != nil {
			log.Fatal(herr)
		}
		fmt.Printf("resumed harvest:  visited %5d, stored %5d, positive %5d\n",
			stats.VisitedURLs, stats.StoredPages, stats.Positive)
	} else {
		var nerr error
		eng, nerr = bingo.NewEngine(cfg)
		if nerr != nil {
			log.Fatal(nerr)
		}
		if *dataDir != "" {
			daemon.LogRecovery(eng.Store())
		}

		fmt.Println("\ntopic tree:")
		fmt.Print(eng.Tree().String())

		learn, harvest, rerr := eng.Run(context.Background())
		if rerr != nil {
			log.Fatal(rerr)
		}
		fmt.Printf("\nlearning phase:   visited %5d, stored %5d, positive %5d, hosts %3d, max depth %d\n",
			learn.VisitedURLs, learn.StoredPages, learn.Positive, learn.VisitedHosts, learn.MaxDepth)
		fmt.Printf("harvesting phase: visited %5d, stored %5d, positive %5d, hosts %3d, max depth %d\n",
			harvest.VisitedURLs, harvest.StoredPages, harvest.Positive, harvest.VisitedHosts, harvest.MaxDepth)
		fmt.Printf("classifier retrained %d times, %d training documents\n", eng.Retrains(), eng.TrainingSize())
	}

	rt := eng.Runtime()
	fmt.Printf("runtime: %d docs stored, %d queued, %d duplicates dismissed, %d slow / %d bad hosts, DNS %d hits / %d misses\n",
		rt.StoredDocs, rt.FrontierQueued, rt.DuplicatesSeen, rt.SlowHosts, rt.BadHosts, rt.DNSHits, rt.DNSMisses)
	if plane != nil {
		fmt.Printf("chaos: %d faults injected, DNS failovers %d\n", totalInjected(plane), rt.DNSFailovers)
		if len(rt.QuarantinedHosts) > 0 {
			fmt.Printf("chaos: quarantined hosts: %v\n", rt.QuarantinedHosts)
		}
		if len(rt.BreakerOpenHosts) > 0 {
			fmt.Printf("chaos: breakers still open: %v\n", rt.BreakerOpenHosts)
		}
	}

	fmt.Printf("\ntop 10 results for %q:\n", q)
	hits := eng.Search().Search(bingo.SearchQuery{
		Text:    q,
		Weights: bingo.RankWeights{Cosine: 0.6, Confidence: 0.4},
		Limit:   10,
	})
	for i, h := range hits {
		fmt.Printf("%2d. %6.3f  %s\n", i+1, h.Score, h.Doc.URL)
	}
	if len(hits) == 0 {
		fmt.Println("(no results)")
	}

	if *dataDir != "" {
		if err := eng.SaveSession(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nsession saved in %s (%d documents); rerun with -resume to continue it\n", *dataDir, eng.Store().NumDocs())
	}
	if *xmlOut != "" {
		f, err := os.Create(*xmlOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := xmlexport.Write(f, eng.Store(), xmlexport.Options{}, time.Now()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("XML export written to %s\n", *xmlOut)
	}
	if *showMetrics {
		fmt.Println("\nprocess metrics:")
		if err := metrics.Default().WritePrometheus(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
}

// totalInjected sums the plane's per-kind injection counts.
func totalInjected(p *faults.Plane) int64 {
	var n int64
	for _, v := range p.Injected() {
		n += v
	}
	return n
}
