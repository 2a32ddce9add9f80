package harness

import (
	"context"
	"fmt"
	"net/url"
	"path/filepath"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/span"
	"github.com/bingo-search/bingo/cmd/bench/stat"
	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/urlnorm"
)

// stage accumulates one replayed layer: the benchmark calls the layer's
// public function itself, single-threaded, one span per call, and charges
// it the heap objects allocated between the two stop-the-world readings
// taken just outside the span.
type stage struct {
	ns     int64
	allocs uint64
	calls  int
	durs   []float64 // each call's nanoseconds, in call order
}

func (s stage) nsPer(units int) float64     { return ratio(float64(s.ns), float64(units)) }
func (s stage) allocsPer(units int) float64 { return ratio(float64(s.allocs), float64(units)) }

// medianNs returns the median call. The serve replay reports medians: its
// calls take milliseconds, the machine is shared, and a handful of stalls
// among a few hundred calls moves a mean by more than the layers being
// told apart are worth.
func (s stage) medianNs() float64 { return stat.Median(s.durs) }

// pairedMedian returns the median of a[i]-b[i]: the two levels' calls for
// the same query are compared with each other, so the spread between
// queries drops out of the difference.
func pairedMedian(a, b []float64) float64 {
	n := min(len(a), len(b))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = a[i] - b[i]
	}
	return stat.Median(diffs)
}

// replay runs staged calls under one parent span.
type replay struct {
	rec    *span.Recorder
	parent int
	stages map[string]*stage
}

func newReplay(rec *span.Recorder, name string) *replay {
	return &replay{rec: rec, parent: rec.Begin(name, 0, 0), stages: map[string]*stage{}}
}

func (p *replay) end() { p.rec.End(p.parent) }

// do times one call into a layer. It returns the span's ID so that a caller
// can hang child spans under it.
func (p *replay) do(name string, req int, fn func(id int)) {
	st := p.stages[name]
	if st == nil {
		st = &stage{}
		p.stages[name] = st
	}
	m0 := mallocs()
	id := p.rec.Begin(name, p.parent, req)
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	p.rec.End(id)
	st.allocs += mallocs() - m0
	st.ns += int64(d)
	st.durs = append(st.durs, float64(d))
	st.calls++
}

func (p *replay) get(name string) stage {
	if st := p.stages[name]; st != nil {
		return *st
	}
	return stage{}
}

// traceIngest is the traced half of ingest-tiered: one more crawl with the
// phase spans on and the registry read around it, then the staged ingest
// replay.
func (r *run) traceIngest(ctx context.Context, w *corpus.World, untracedPagesPerCPUSec float64, last *crawlResult) error {
	r.discard(last.dir)
	cr, err := r.crawl(ctx, w)
	if err != nil {
		return err
	}
	*last = *cr
	stored := float64(cr.stored)
	d := cr.reg
	r.layer["bench.trace_overhead_share"] = 1 - ratio(ratio(stored, cr.cpuS), untracedPagesPerCPUSec)
	r.layer["bench.pages_per_s"] = ratio(stored, cr.wallS)
	r.layer["bench.queryable_lag_s"] = cr.queryableLagS
	r.layer["bench.reopen_s"] = cr.reopenS
	r.layer["dns.cache_hit_share"] = ratio(d.c("dns_cache_hits_total"), d.c("dns_cache_hits_total")+d.c("dns_cache_misses_total"))
	r.layer["fetch.body_bytes_per_page"] = ratio(d.c("fetch_body_bytes_total"), stored)
	r.layer["fetch.retry_share"] = ratio(d.c("fetch_retries_total"), d.c("fetch_requests_total"))
	r.layer["classify.accept_share"] = ratio(d.c("crawler_pages_positive_total"), d.c("crawler_pages_stored_total"))
	r.layer["core.retrains"] = d.c("engine_retrains_total")
	r.layer["core.retrain_ms"] = float64(d.histSum["engine_retrain_nanos"]) / 1e6
	r.layer["frontier.dropped_share"] = ratio(d.c("frontier_dropped_full_total")+d.c("frontier_dropped_depth_total"), d.c("frontier_pushed_total"))
	r.layer["crawler.worker_busy_share"] = ratio(d.c("crawler_worker_busy_nanos_total"), d.c("crawler_worker_busy_nanos_total")+d.c("crawler_worker_idle_nanos_total"))
	r.layerFromStoreRegistry(d, stored)
	r.layer["search.snapshot_build_ms"] = ratio(float64(d.histSum["search_snapshot_build_nanos"])/1e6, float64(d.histN["search_snapshot_build_nanos"]))
	r.layer["search.snapshot_rebuilds"] = d.c("search_snapshot_rebuilds_total")
	r.layerFromRecovery([]store.RecoveryStats{cr.recovery}, cr.reopenReg)

	staged, err := r.replayIngest(ctx, w, cr)
	if err != nil {
		return err
	}
	r.layer["crawler.self_ns_per_page"] = ratio(cr.cpuS*1e9, stored) - staged
	return nil
}

// layerFromStoreRegistry fills the write-path metrics that the program's
// own counters give, per document delivered.
func (r *run) layerFromStoreRegistry(d registry, docs float64) {
	r.layer["store.wal_bytes_per_doc"] = ratio(d.c("wal_bytes_total"), docs)
	r.layer["store.wal_fsyncs"] = float64(d.histN["wal_fsync_nanos"])
	r.layer["store.wal_fsync_ms_sum"] = float64(d.histSum["wal_fsync_nanos"]) / 1e6
	r.layer["store.freezes"] = d.c("segment_freezes_total")
	r.layer["store.compactions"] = d.c("segment_compaction_runs_total")
	r.layer["store.compact_bytes_in"] = d.c("segment_compaction_bytes_read_total")
	r.layer["store.compact_bytes_out"] = d.c("segment_compaction_bytes_written_total")
}

// layerFromBuild fills the per-layer metrics a serve-* set-up yields: the
// corpus delivery is the store's write path run without a crawler in front.
func (r *run) layerFromBuild(s *serving, b buildResult) {
	docs := float64(b.docs)
	r.layer["bench.pages_per_s"] = ratio(docs, b.wallS)
	r.layer["bench.queryable_lag_s"] = b.queryableLagS
	r.layerFromStoreRegistry(b.reg, docs)
	r.layer["store.flush_ns_per_doc"] = ratio(float64(b.reg.histSum["store_flush_nanos"]), docs)
	r.layer["search.snapshot_build_ms"] = ratio(float64(b.reg.histSum["search_snapshot_build_nanos"])/1e6, float64(b.reg.histN["search_snapshot_build_nanos"]))
	if s.sharded {
		r.layer["rpc.ingest_ns_per_doc"] = ratio(b.cpuS*1e9, docs)
		r.layer["coord.sync_ms"] = s.syncMs
	}
}

// layerFromReopen fills the restart metrics of a serve-* run.
func (r *run) layerFromReopen(stores []*store.Store, d registry) {
	rs := make([]store.RecoveryStats, len(stores))
	for i, st := range stores {
		rs[i] = st.Recovery()
	}
	r.layerFromRecovery(rs, d)
}

func (r *run) layerFromRecovery(rs []store.RecoveryStats, d registry) {
	var elapsed time.Duration
	segments := 0
	for _, rc := range rs {
		elapsed += rc.Elapsed
		segments += rc.Segments
	}
	r.layer["store.reopen_ms"] = float64(elapsed) / 1e6
	r.layer["store.wal_replay_records"] = d.c("wal_replay_records_total")
	r.layer["segment.open_ns_per_segment"] = ratio(float64(elapsed), float64(segments))
}

// replayIngest drives each write-path layer's public functions itself, one
// page at a time, over the first ReplayPages URLs (in URL order) that the
// traced crawl stored: Resolver.Resolve → Fetcher.Fetch → htmldoc.Convert →
// Pipeline.StemsParts → Classifier.Classify → Frontier.Push/Pop →
// Workspace.Add/AddLink → Workspace.Flush every batchRows rows →
// FreezeShard in four rounds → CompactShard → first Engine.Search. The
// collaborators are built the way core.New builds them. It returns the sum
// of the staged layers in nanoseconds per page.
func (r *run) replayIngest(ctx context.Context, w *corpus.World, cr *crawlResult) (float64, error) {
	dir, err := r.scratch("replay")
	if err != nil {
		return 0, err
	}
	table := map[string]dns.Record{}
	for h, rec := range w.DNSTable() {
		table[h] = rec
	}
	servers := make([]dns.Server, 5)
	for i := range servers {
		servers[i] = dns.NewStaticServer(table)
	}
	resolver := dns.NewResolver(dns.Config{}, servers...)
	fetcher := fetch.New(fetch.Config{
		Transport:        w.RoundTripper(),
		Resolver:         resolver,
		Timeout:          10 * time.Second,
		Retry:            fetch.RetryPolicy{MaxAttempts: 3},
		Breaker:          fetch.NewBreakerSet(fetch.BreakerConfig{FailureThreshold: 5, OpenFor: 15 * time.Second}),
		DegradeTruncated: true,
		RespectRobots:    true,
	}, fetch.NewDeduper(), fetch.NewHostTracker(3))
	front := frontier.New(frontier.Config{IncomingLimit: 30000, OutgoingLimit: 1000, TunnelDecay: 0.5})
	defer front.Close()
	pipe := textproc.NewPipeline()
	// No automatic freeze or merge: the replay calls FreezeShard and
	// CompactShard itself so that each gets its own spans.
	opt := storeOptions(r.sc)
	opt.MemtableBudget = 1 << 40
	opt.DisableCompaction = true
	st, err := store.OpenTiered(filepath.Join(dir, "store-0"), r.sc.StoreShards, opt)
	if err != nil {
		return 0, fmt.Errorf("replay store: %w", err)
	}
	defer st.Close()

	n := min(r.sc.ReplayPages, len(cr.urls))
	p := newReplay(r.rec, "replay.ingest")
	ws := st.NewWorkspace(1 << 30) // flushed by hand, every batchRows rows
	pages, items, rows, frozenDocs := 0, 0, 0, 0
	freeze := func() error {
		var ferr error
		for i := 0; i < st.NumShards(); i++ {
			p.do("store.freeze", 0, func(int) {
				if err := st.FreezeShard(i); err != nil && ferr == nil {
					ferr = err
				}
			})
		}
		frozenDocs = pages
		return ferr
	}
	for i := 0; i < n; i++ {
		raw := cr.urls[i]
		u, err := url.Parse(raw)
		if err != nil {
			continue
		}
		p.do("dns.resolve", i, func(int) { _, _ = resolver.Resolve(ctx, u.Hostname()) })
		var res *fetch.Result
		var ferr error
		p.do("fetch.fetch", i, func(int) { res, ferr = fetcher.Fetch(ctx, raw) })
		if ferr != nil {
			// The crawl stored this URL, but the replay visits in URL order
			// and the fetcher's content fingerprint keeps whichever member
			// of a duplicate class arrives first.
			continue
		}
		final, err := url.Parse(res.FinalURL)
		if err != nil {
			final = u
		}
		var doc *htmldoc.Document
		p.do("htmldoc.convert", i, func(int) {
			doc, ferr = htmldoc.Convert(res.ContentType, res.Body, linkResolver(final))
		})
		res.ReleaseBody()
		if ferr != nil {
			continue
		}
		var stems []string
		p.do("textproc.stems", i, func(int) { stems = pipe.StemsParts(doc.Title, doc.Text) })
		var result classify.Result
		p.do("classify.classify", i, func(int) {
			result = cr.classifier.Classify(classify.Doc{ID: res.FinalURL, Input: features.DocInput{Stems: stems}})
		})
		p.do("frontier.pushpop", i, func(int) {
			for _, l := range doc.Links {
				front.Push(frontier.Item{URL: l.URL, Topic: result.Topic, Priority: result.Confidence, Depth: 1, Referrer: res.FinalURL, Anchor: l.Anchor})
			}
			if _, ok := front.TryPop(); ok {
				front.Done()
			}
		})
		items += len(doc.Links) + 1
		p.do("store.add", i, func(int) {
			terms := make(map[string]int, len(stems))
			for _, s := range stems {
				terms[s]++
			}
			ws.Add(store.Document{
				URL: raw, FinalURL: res.FinalURL, Title: doc.Title, ContentType: res.ContentType,
				Topic: result.Topic, Confidence: result.Confidence, Text: doc.Text, Terms: terms, CrawledAt: time.Now(),
			})
			for _, l := range doc.Links {
				ws.AddLink(store.Link{From: res.FinalURL, To: l.URL, Anchor: l.Anchor})
			}
		})
		pages++
		rows += 1 + len(doc.Links)
		if rows >= batchRows {
			rows = 0
			p.do("store.flush", i, func(int) { ferr = ws.Flush() })
			if ferr != nil {
				return 0, fmt.Errorf("replay flush: %w", ferr)
			}
		}
		if (i+1)%((n+3)/4) == 0 {
			if err := freeze(); err != nil {
				return 0, fmt.Errorf("replay freeze: %w", err)
			}
		}
	}
	var ferr error
	p.do("store.flush", n, func(int) { ferr = ws.Flush() })
	if ferr != nil {
		return 0, fmt.Errorf("replay flush: %w", ferr)
	}
	if frozenDocs < pages {
		if err := freeze(); err != nil {
			return 0, fmt.Errorf("replay freeze: %w", err)
		}
	}
	segBytes, err := dirBytes(dir, isSegment)
	if err != nil {
		return 0, err
	}
	for i := 0; i < st.NumShards(); i++ {
		for did := true; did && ferr == nil; {
			p.do("store.compact", 0, func(int) { did, ferr = st.CompactShard(i) })
		}
	}
	if ferr != nil {
		return 0, fmt.Errorf("replay compaction: %w", ferr)
	}
	p.do("search.first_query", 0, func(int) { search.New(st).Search(search.Query{Text: firstQueryText}) })
	p.end()
	if pages == 0 {
		return 0, fmt.Errorf("ingest replay fetched none of %d pages", n)
	}

	fetchSt, convSt, stemSt, clsSt := p.get("fetch.fetch"), p.get("htmldoc.convert"), p.get("textproc.stems"), p.get("classify.classify")
	r.layer["dns.ns_per_lookup"] = p.get("dns.resolve").nsPer(p.get("dns.resolve").calls)
	r.layer["fetch.ns_per_page"] = fetchSt.nsPer(pages)
	r.layer["fetch.allocs_per_page"] = fetchSt.allocsPer(pages)
	r.layer["htmldoc.ns_per_page"] = convSt.nsPer(pages)
	r.layer["htmldoc.allocs_per_page"] = convSt.allocsPer(pages)
	r.layer["textproc.ns_per_page"] = stemSt.nsPer(pages)
	r.layer["textproc.allocs_per_page"] = stemSt.allocsPer(pages)
	r.layer["classify.ns_per_page"] = clsSt.nsPer(pages)
	r.layer["classify.allocs_per_page"] = clsSt.allocsPer(pages)
	r.layer["frontier.ns_per_item"] = p.get("frontier.pushpop").nsPer(items)
	flushNs := p.get("store.add").ns + p.get("store.flush").ns
	r.layer["store.flush_ns_per_doc"] = ratio(float64(flushNs), float64(pages))
	r.layer["store.flush_allocs_per_doc"] = ratio(float64(p.get("store.add").allocs+p.get("store.flush").allocs), float64(pages))
	r.layer["store.freeze_ns_per_doc"] = p.get("store.freeze").nsPer(pages)
	r.layer["segment.build_bytes_per_doc"] = ratio(float64(segBytes), float64(pages))
	r.layer["store.compact_ns_per_doc"] = p.get("store.compact").nsPer(pages)
	r.out.Info["replay.ingest_pages"] = float64(pages)

	perPage := p.get("dns.resolve").nsPer(pages) + fetchSt.nsPer(pages) + convSt.nsPer(pages) + stemSt.nsPer(pages) +
		clsSt.nsPer(pages) + p.get("frontier.pushpop").nsPer(pages) + ratio(float64(flushNs), float64(pages)) +
		p.get("store.freeze").nsPer(pages) + p.get("store.compact").nsPer(pages)
	return perPage, nil
}

// linkResolver is the crawler's href resolver (crawler.process): absolute
// hrefs go through the normalization memo, the rest resolve against the
// fetched URL.
func linkResolver(final *url.URL) htmldoc.Resolver {
	return func(base, href string) (string, bool) {
		if base == "" && urlnorm.Cacheable(href) {
			return urlnorm.NormalizeCached(href)
		}
		from := final
		if base != "" {
			if b, err := final.Parse(base); err == nil {
				from = b
			}
		}
		ref, err := from.Parse(href)
		if err != nil {
			return "", false
		}
		urlnorm.NormalizeURL(ref)
		if ref.Scheme != "http" && ref.Scheme != "https" {
			return "", false
		}
		return ref.String(), true
	}
}
