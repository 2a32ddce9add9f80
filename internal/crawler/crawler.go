// Package crawler is BINGO!'s multi-threaded crawl executor (§2.1, §4.2):
// worker goroutines pop prioritized links from the frontier, retrieve them
// through the fetch layer, run the document analyzer, invoke the (injected)
// classifier, store results through batched workspaces, and enqueue
// extracted hyperlinks according to the active focusing rule — sharp focus
// during learning, soft focus with tunnelling during harvesting (§3.3).
package crawler

import (
	"context"
	"errors"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/urlnorm"
)

// Process-wide crawl metrics. Counters mirror the per-crawl Stats (Table 1)
// but aggregate across every Crawler in the process; the stage histograms
// split a page's journey into fetch / parse / classify / store so a
// throughput drop can be attributed to one pipeline stage; the busy/idle
// counters give worker-pool utilization (busy ÷ (busy+idle)); and each
// stage emits a trace span into the default ring so /tracez can replay one
// page end to end.
var (
	mPagesFetched   = metrics.NewCounter("crawler_pages_fetched_total")
	mPagesStored    = metrics.NewCounter("crawler_pages_stored_total")
	mPagesPositive  = metrics.NewCounter("crawler_pages_positive_total")
	mPagesRejected  = metrics.NewCounter("crawler_pages_rejected_total")
	mErrors         = metrics.NewCounter("crawler_errors_total")
	mDuplicates     = metrics.NewCounter("crawler_duplicates_total")
	mLinksExtracted = metrics.NewCounter("crawler_links_extracted_total")
	mFetchNanos     = metrics.NewHistogram("crawler_fetch_nanos")
	mParseNanos     = metrics.NewHistogram("crawler_parse_nanos")
	mClassifyNanos  = metrics.NewHistogram("crawler_classify_nanos")
	mStoreNanos     = metrics.NewHistogram("crawler_store_nanos")
	mBusyNanos      = metrics.NewCounter("crawler_worker_busy_nanos_total")
	mIdleNanos      = metrics.NewCounter("crawler_worker_idle_nanos_total")
	mWorkers        = metrics.NewGauge("crawler_workers")
	mRequeued       = metrics.NewCounter("crawler_breaker_requeues_total")
	mRequeueDrops   = metrics.NewCounter("crawler_requeues_exhausted_total")
	mDegraded       = metrics.NewCounter("crawler_pages_degraded_total")
	mAbandoned      = metrics.NewCounter("crawler_visits_abandoned_total")
)

// Focus selects the link-acceptance rule (§3.3).
type Focus int

const (
	// SharpFocus accepts only links from documents classified into the same
	// topic as their referrer (class(p) = class(q)); links from rejected
	// documents may still be followed within the tunnelling threshold.
	SharpFocus Focus = iota
	// SoftFocus accepts links from documents classified into any topic of
	// interest (class(p) != ROOT/OTHERS).
	SoftFocus
)

// Strategy selects the frontier priority computation (§2.6).
type Strategy int

const (
	// BreadthFirst prioritizes by SVM confidence alone (harvesting).
	BreadthFirst Strategy = iota
	// DepthFirst boosts deeper links so the crawl digs into the vicinity of
	// the seeds (learning phase).
	DepthFirst
)

// Config wires the crawler's collaborators.
type Config struct {
	Fetcher  *fetch.Fetcher
	Frontier *frontier.Frontier
	Store    *store.Store
	// Tenant tags every stored document with the portal that scheduled the
	// crawl ("" = the default tenant). Link and redirect rows stay
	// URL-keyed — the web graph is shared across portals.
	Tenant string
	// Classify runs the hierarchical classifier on an analyzed document.
	Classify func(d classify.Doc) classify.Result
	// OnStored, when non-nil, observes every stored document (the engine
	// uses it to trigger retraining).
	OnStored func(d store.Document, r classify.Result)
	// Sink, when non-nil, receives a copy of every stored row (documents,
	// links, redirects) alongside the local store write. A distributed
	// deployment points it at the coordinator's ingest router so the crawl
	// mirrors into remote shard servers; see store.Sink.
	Sink store.Sink

	Workers      int // paper: 15
	MaxPerHost   int // paper: 2
	MaxPerDomain int // paper: 5
	// MaxDepth bounds the crawl depth (0 = unlimited).
	MaxDepth int
	// MaxTunnelDepth bounds consecutive hops through rejected pages
	// (paper: 2; links beyond it are dropped).
	MaxTunnelDepth int
	// PageBudget stops the crawl after visiting this many URLs (0 = no
	// budget; the crawl ends when the frontier drains).
	PageBudget int64
	// Focus and Strategy select the phase behaviour.
	Focus    Focus
	Strategy Strategy
	// AllowedDomains, when non-empty, restricts the crawl to hosts whose
	// registered domain is in the list (learning phase restriction, §2.6).
	AllowedDomains []string
	// BatchSize is the workspace bulk-load batch (default 32): each worker
	// buffers this many documents, with their links and redirects, before
	// moving them into the store in one bulk load (§4.1).
	BatchSize int
	// FlushInterval bounds how long a worker may sit on a partially filled
	// workspace (default 200ms), so observers of the store see crawl
	// progress even when batches fill slowly.
	FlushInterval time.Duration
	// PerHostDelay enforces a minimum interval between consecutive requests
	// to one host (0 = disabled; crawl-delay style politeness).
	PerHostDelay time.Duration
	// MaxRequeues caps how many times one link may be requeued with delay
	// after a circuit-breaker rejection before it is dropped as an error
	// (default 8; guarantees progress under a persistent breaker storm).
	MaxRequeues int
	// DegradedConfidenceFactor scales the classifier confidence of a page
	// served from a truncated body (graceful degradation: the prefix is
	// still classified, but with reduced trust). Default 0.5.
	DegradedConfidenceFactor float64
}

// Stats are the counters reported in the paper's Table 1.
type Stats struct {
	VisitedURLs    int64 // fetch attempts, at most PageBudget; those the crawl's end abandons are not counted
	StoredPages    int64
	ExtractedLinks int64
	Positive       int64 // positively classified (not OTHERS)
	VisitedHosts   int   // distinct hosts successfully fetched from
	MaxDepth       int
	Errors         int64
	Duplicates     int64
	Rejected       int64 // classified into an OTHERS node
	// Requeued counts breaker-open rejections sent back to the frontier
	// with a cool-down delay (NOT visits, errors, or drops).
	Requeued int64
	// Degraded counts pages stored from truncated bodies with a confidence
	// penalty instead of being dropped.
	Degraded int64
	// Quarantined lists the hosts the fetch layer tagged bad during the
	// crawl (poisoned hosts), sorted.
	Quarantined []string
	// FirstError is the class and URL of the crawl's first failed visit
	// ("" when Errors is 0); crawler_errors_by_class_total counts them all.
	FirstError string
}

// Crawler executes one crawl phase.
type Crawler struct {
	cfg   Config
	pipe  *textproc.Pipeline
	hosts sync.Map // visited hosts set

	visited    atomic.Int64
	stored     atomic.Int64
	extracted  atomic.Int64
	positive   atomic.Int64
	errs       atomic.Int64
	duplicates atomic.Int64
	rejected   atomic.Int64
	requeued   atomic.Int64
	degraded   atomic.Int64
	maxDepth   atomic.Int64
	firstErr   atomic.Pointer[string]
}

// New builds a crawler. Config.Fetcher, Frontier, Store and Classify are
// required.
func New(cfg Config) *Crawler {
	if cfg.Workers <= 0 {
		cfg.Workers = 15
	}
	if cfg.MaxTunnelDepth < 0 {
		cfg.MaxTunnelDepth = 0
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 200 * time.Millisecond
	}
	if cfg.MaxRequeues <= 0 {
		cfg.MaxRequeues = 8
	}
	if cfg.DegradedConfidenceFactor <= 0 || cfg.DegradedConfidenceFactor > 1 {
		cfg.DegradedConfidenceFactor = 0.5
	}
	return &Crawler{cfg: cfg, pipe: textproc.NewPipeline()}
}

// Seed enqueues the starting URLs for a topic. Seeds carry the IsSeed flag,
// which every scheduler orders ahead of all discovered links.
func (c *Crawler) Seed(topic string, urls ...string) {
	for _, u := range urls {
		c.cfg.Frontier.Push(frontier.Item{URL: u, Topic: topic, IsSeed: true})
	}
}

// Run crawls until the frontier drains, the page budget is exhausted, or
// ctx is cancelled. It is safe to call Run again afterwards (e.g. after
// retraining with a re-seeded frontier).
//
// Execution model (§4.1/§4.2): a persistent pool of cfg.Workers long-lived
// workers, each owning a store.Workspace, pulls from the frontier through
// the blocking PopWait — idle workers park on the frontier's wakeup channel
// instead of polling. The crawl is over when the frontier reports drain
// (empty with no item still in flight), the budget is spent, or ctx is
// cancelled; every worker bulk-flushes its workspace on the way out.
func (c *Crawler) Run(ctx context.Context) Stats {
	limiter := newHostLimiterDelay(c.cfg.MaxPerHost, c.cfg.MaxPerDomain, c.cfg.PerHostDelay)
	defer limiter.Close()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mWorkers.Add(int64(c.cfg.Workers))
	defer mWorkers.Add(-int64(c.cfg.Workers))
	var wg sync.WaitGroup
	wg.Add(c.cfg.Workers)
	for i := 0; i < c.cfg.Workers; i++ {
		go func() {
			defer wg.Done()
			c.worker(runCtx, cancel, limiter)
		}()
	}
	wg.Wait()
	if c.cfg.Sink != nil {
		// Push out whatever the sink still buffers; undeliverable batches
		// stay parked inside the sink for its own retry machinery.
		_ = c.cfg.Sink.Flush()
	}
	return c.Stats()
}

// worker is one long-lived crawl thread: pop, process, mark done, repeat.
func (c *Crawler) worker(ctx context.Context, cancel context.CancelFunc, limiter *hostLimiter) {
	ws := c.cfg.Store.NewWorkspace(c.cfg.BatchSize)
	defer ws.Flush()
	lastFlush := time.Now()
	for {
		if c.cfg.PageBudget > 0 && c.visited.Load() >= c.cfg.PageBudget {
			cancel() // budget spent: wake parked peers so the pool exits
			return
		}
		if ctx.Err() != nil {
			// The crawl is over: a pop now could only be abandoned.
			return
		}
		it, ok := c.cfg.Frontier.TryPop()
		if !ok {
			// About to park: publish buffered rows so store readers see a
			// fresh view whenever the crawl goes idle, then wait for work.
			ws.Flush()
			idleStart := time.Now()
			if it, ok = c.cfg.Frontier.PopWait(ctx); !ok {
				mIdleNanos.Add(time.Since(idleStart).Nanoseconds())
				return // drained, closed, or cancelled
			}
			mIdleNanos.Add(time.Since(idleStart).Nanoseconds())
			lastFlush = time.Now()
		}
		busyStart := time.Now()
		c.process(ctx, it, limiter, ws)
		mBusyNanos.Add(time.Since(busyStart).Nanoseconds())
		c.cfg.Frontier.Done()
		if now := time.Now(); ws.Buffered() > 0 && now.Sub(lastFlush) >= c.cfg.FlushInterval {
			ws.Flush()
			lastFlush = now
		}
	}
}

// process handles one frontier item end to end. Rows are buffered in ws and
// bulk-loaded.
func (c *Crawler) process(ctx context.Context, it frontier.Item, limiter *hostLimiter, ws *store.Workspace) {
	if c.cfg.MaxDepth > 0 && it.Depth > c.cfg.MaxDepth {
		c.cfg.Frontier.DropDepth()
		return
	}
	u, err := url.Parse(it.URL)
	if err != nil {
		return
	}
	host := u.Hostname()
	if !c.domainAllowed(host) {
		return
	}
	if !limiter.Acquire(host) {
		return
	}
	defer limiter.Release(host)

	if n := c.visited.Add(1); c.cfg.PageBudget > 0 && n > c.cfg.PageBudget {
		// Peers spent the page budget since this item was popped: put it
		// back for a later crawl over the same frontier.
		c.visited.Add(-1)
		c.cfg.Frontier.Requeue(it, 0)
		return
	}
	fetchStart := time.Now()
	res, err := c.cfg.Fetcher.Fetch(ctx, it.URL)
	mFetchNanos.ObserveSince(fetchStart)
	metrics.Span("fetch", it.URL, fetchStart, fetch.ErrClass(err))
	if err != nil {
		var bo *fetch.BreakerOpenError
		switch {
		case errors.Is(err, fetch.ErrCanceled):
			// The crawl's own context ended mid-fetch (page budget spent,
			// retrain pause, shutdown): the visit is abandoned, like a page
			// fetched after it ends, not failed, and uncounted — which keeps
			// the invariant stored+duplicates+errors == visited.
			c.visited.Add(-1)
			mAbandoned.Inc()
		case err == fetch.ErrDuplicate:
			c.duplicates.Add(1)
			mDuplicates.Inc()
		case errors.As(err, &bo):
			// The host's circuit breaker rejected the fetch before any
			// network work happened. Requeue with the breaker's cool-down so
			// the link gets another chance once the host is re-probed; after
			// MaxRequeues rejections (or once the host is quarantined) give
			// up and book it as an error. The visit is uncounted — nothing
			// was attempted — which also keeps the crawl accounting
			// invariant (stored+duplicates+errors == visited) intact.
			if it.Requeues < c.cfg.MaxRequeues && !c.cfg.Fetcher.Hosts.Bad(host) {
				c.visited.Add(-1)
				it.Requeues++
				c.cfg.Frontier.Requeue(it, bo.RetryIn)
				c.requeued.Add(1)
				mRequeued.Inc()
			} else {
				c.fail("requeues-exhausted", it.URL)
				mRequeueDrops.Inc()
			}
		default:
			c.fail(fetch.ErrClass(err), it.URL)
		}
		return
	}
	mPagesFetched.Inc()
	c.hosts.Store(host, struct{}{})
	for d := int64(it.Depth); ; {
		cur := c.maxDepth.Load()
		if d <= cur || c.maxDepth.CompareAndSwap(cur, d) {
			break
		}
	}

	// Shutdown check between fetch and store: on cancellation the worker
	// exits with whatever its workspace holds instead of analyzing and
	// buffering more pages that would only be flushed on the way out.
	if ctx.Err() != nil {
		c.visited.Add(-1)
		mAbandoned.Inc()
		return
	}

	final, err := url.Parse(res.FinalURL)
	if err != nil {
		final = u
	}
	resolve := func(base, href string) (string, bool) {
		// Absolute hrefs don't depend on the document base, and the same
		// targets recur across pages, so their normalization is memoized.
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
	parseStart := time.Now()
	doc, err := htmldoc.Convert(res.ContentType, res.Body, resolve)
	mParseNanos.ObserveSince(parseStart)
	// Handlers copy what they keep, so the body buffer can go straight back
	// to the fetcher's pool.
	res.ReleaseBody()
	if err != nil {
		metrics.Span("parse", it.URL, parseStart, "parse-error")
		c.fail("parse-error", it.URL)
		return
	}
	metrics.Span("parse", it.URL, parseStart, "")

	// Document analysis -> classification.
	classifyStart := time.Now()
	stems := c.pipe.StemsParts(doc.Title, doc.Text)
	var anchors []string
	if it.Anchor != "" {
		anchors = append(anchors, it.Anchor)
	}
	cdoc := classify.Doc{ID: res.FinalURL, Input: features.DocInput{Stems: stems, Anchors: anchors}}
	result := c.cfg.Classify(cdoc)
	if res.Truncated {
		// Graceful degradation: the body was cut mid-read on every attempt,
		// so the classification ran on a prefix — keep the page but scale
		// its confidence down so ranking and archetype selection trust it
		// less.
		result.Confidence *= c.cfg.DegradedConfidenceFactor
		c.degraded.Add(1)
		mDegraded.Inc()
	}
	mClassifyNanos.ObserveSince(classifyStart)
	metrics.Span("classify", it.URL, classifyStart, "")
	accepted := result.Accepted
	if accepted {
		c.positive.Add(1)
		mPagesPositive.Inc()
	} else {
		c.rejected.Add(1)
		mPagesRejected.Inc()
	}
	// Store the document and its link rows (all crawled documents are kept
	// in the database, including rejected ones).
	// Pre-sized to the stem count so the map never rehashes while filling;
	// repeated terms leave some slack, which the store keeps anyway.
	storeStart := time.Now()
	terms := make(map[string]int, len(stems))
	for _, s := range stems {
		terms[s]++
	}
	sd := store.Document{
		Tenant:      c.cfg.Tenant,
		URL:         it.URL,
		FinalURL:    res.FinalURL,
		Title:       doc.Title,
		ContentType: res.ContentType,
		Topic:       result.Topic,
		Confidence:  result.Confidence,
		Depth:       it.Depth,
		Text:        doc.Text,
		Terms:       terms,
		CrawledAt:   time.Now(),
	}
	ws.Add(sd)
	for _, r := range res.Redirects {
		ws.AddRedirect(store.Redirect{From: it.URL, To: r})
	}
	for _, l := range doc.Links {
		ws.AddLink(store.Link{From: res.FinalURL, To: l.URL, Anchor: l.Anchor})
	}
	if sink := c.cfg.Sink; sink != nil {
		// Tee the same rows to the external sink; delivery buffering,
		// batching, and failure accounting are the sink's concern.
		sink.PutDoc(sd)
		for _, r := range res.Redirects {
			sink.PutRedirect(store.Redirect{From: it.URL, To: r})
		}
		for _, l := range doc.Links {
			sink.PutLink(store.Link{From: res.FinalURL, To: l.URL, Anchor: l.Anchor})
		}
	}
	c.stored.Add(1)
	mPagesStored.Inc()
	mStoreNanos.ObserveSince(storeStart)
	metrics.Span("store", it.URL, storeStart, "")
	if c.cfg.OnStored != nil {
		c.cfg.OnStored(sd, result)
	}

	// Focusing rule: decide whether this document's out-links enter the
	// frontier, and with which topic/tunnel bookkeeping (§3.3).
	nextTopic := result.Topic
	tunnel := 0
	switch {
	case accepted && c.cfg.Focus == SharpFocus:
		// class(p) must equal class(q): only links from documents whose
		// class matches the topic the link was found under stay sharp.
		if it.Topic != "" && result.Topic != it.Topic {
			// digression: treat as tunnelling under the referrer's topic
			nextTopic = it.Topic
			tunnel = it.TunnelDepth + 1
		}
	case accepted && c.cfg.Focus == SoftFocus:
		// any topic of interest is fine
	default:
		// rejected document: tunnel through it with decayed priority
		nextTopic = it.Topic
		tunnel = it.TunnelDepth + 1
	}
	if tunnel > c.cfg.MaxTunnelDepth {
		c.cfg.Frontier.DropDepth()
		return
	}

	links := doc.Links
	for _, f := range doc.Frames {
		links = append(links, htmldoc.Link{URL: f})
	}
	c.extracted.Add(int64(len(links)))
	mLinksExtracted.Add(int64(len(links)))
	prio := c.priority(result.Confidence, it.Depth+1)
	for _, l := range links {
		c.cfg.Frontier.Push(frontier.Item{
			URL:         l.URL,
			Topic:       nextTopic,
			Priority:    prio,
			Depth:       it.Depth + 1,
			TunnelDepth: tunnel,
			Referrer:    res.FinalURL,
			Anchor:      l.Anchor,
		})
	}
}

// priority implements the two crawl strategies: harvesting orders purely by
// confidence; learning boosts depth so the crawl digs down first.
func (c *Crawler) priority(conf float64, depth int) float64 {
	if c.cfg.Strategy == DepthFirst {
		return conf + float64(depth)*10
	}
	return conf
}

func (c *Crawler) domainAllowed(host string) bool {
	if len(c.cfg.AllowedDomains) == 0 {
		return true
	}
	d := RegisteredDomain(host)
	for _, allowed := range c.cfg.AllowedDomains {
		if d == allowed || host == allowed || strings.HasSuffix(host, "."+allowed) {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the crawl counters.
func (c *Crawler) Stats() Stats {
	hosts := 0
	c.hosts.Range(func(_, _ any) bool { hosts++; return true })
	firstErr := ""
	if p := c.firstErr.Load(); p != nil {
		firstErr = *p
	}
	return Stats{
		VisitedURLs:    c.visited.Load(),
		StoredPages:    c.stored.Load(),
		ExtractedLinks: c.extracted.Load(),
		Positive:       c.positive.Load(),
		VisitedHosts:   hosts,
		MaxDepth:       int(c.maxDepth.Load()),
		Errors:         c.errs.Load(),
		Duplicates:     c.duplicates.Load(),
		Rejected:       c.rejected.Load(),
		Requeued:       c.requeued.Load(),
		Degraded:       c.degraded.Load(),
		Quarantined:    c.cfg.Fetcher.Hosts.BadHosts(),
		FirstError:     firstErr,
	}
}

// fail books a failed visit of url under class — a fetch.ErrClass,
// "parse-error" or "requeues-exhausted" — in Errors, crawler_errors_total
// and crawler_errors_by_class_total{class=…}, and keeps the first one as
// Stats.FirstError.
func (c *Crawler) fail(class, url string) {
	c.errs.Add(1)
	mErrors.Inc()
	metrics.NewCounter(`crawler_errors_by_class_total{class="` + class + `"}`).Inc()
	if c.firstErr.Load() == nil {
		first := class + " " + url
		c.firstErr.CompareAndSwap(nil, &first)
	}
}
