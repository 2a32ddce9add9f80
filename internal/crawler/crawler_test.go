package crawler

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// keywordClassifier fakes the SVM: a document is on-topic when it contains
// enough database-topic stems. This isolates crawler mechanics from
// classifier training.
func keywordClassifier(d classify.Doc) classify.Result {
	hits := 0
	for _, s := range d.Input.Stems {
		switch s {
		case "databas", "queri", "transact", "recoveri", "index", "schema",
			"relat", "storag", "log", "ari", "join", "sql", "olap", "mine":
			hits++
		}
	}
	conf := float64(hits) / float64(len(d.Input.Stems)+1)
	if hits >= 3 {
		return classify.Result{Topic: "ROOT/db", Confidence: conf, Accepted: true}
	}
	return classify.Result{Topic: "ROOT/OTHERS", Confidence: conf, Accepted: false}
}

func testSetup(t *testing.T, cfgMut func(*Config)) (*Crawler, *store.Store, *corpus.World) {
	t.Helper()
	world := corpus.Generate(corpus.TinyConfig())
	resolver := dns.NewResolver(dns.Config{}, world.DNSServer())
	f := fetch.New(fetch.Config{
		Transport: world.RoundTripper(),
		Resolver:  resolver,
		Timeout:   5 * time.Second,
	}, nil, nil)
	st := store.New()
	cfg := Config{
		Fetcher:        f,
		Frontier:       frontier.New(frontier.DefaultConfig()),
		Store:          st,
		Classify:       keywordClassifier,
		Workers:        8,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
		Strategy:       BreadthFirst,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	return New(cfg), st, world
}

func TestCrawlCollectsTopicPages(t *testing.T) {
	c, st, world := testSetup(t, func(cfg *Config) { cfg.PageBudget = 300 })
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	if stats.StoredPages < 50 {
		t.Fatalf("stored only %d pages; stats=%+v", stats.StoredPages, stats)
	}
	if stats.Positive == 0 {
		t.Fatal("nothing positively classified")
	}
	if stats.VisitedHosts < 2 {
		t.Errorf("visited hosts = %d", stats.VisitedHosts)
	}
	if stats.MaxDepth == 0 {
		t.Error("never descended")
	}
	if stats.VisitedURLs < stats.StoredPages {
		t.Errorf("visited %d < stored %d", stats.VisitedURLs, stats.StoredPages)
	}
	if st.NumDocs() != int(stats.StoredPages) {
		t.Errorf("store has %d docs, stats says %d", st.NumDocs(), stats.StoredPages)
	}
	// most stored positives should be real topic-0 pages
	onTopic, offTopic := 0, 0
	for _, d := range st.ByTopic("ROOT/db") {
		if ti, ok := world.PageTopic(d.URL); ok && ti == 0 {
			onTopic++
		} else {
			offTopic++
		}
	}
	if onTopic == 0 || onTopic < offTopic*3 {
		t.Errorf("focus quality poor: on=%d off=%d", onTopic, offTopic)
	}
}

func TestPageBudgetRespected(t *testing.T) {
	c, _, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 40
		cfg.Workers = 4
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	// budget is checked before dispatch; inflight workers may add at most
	// Workers extra visits
	if stats.VisitedURLs > 40+4 {
		t.Errorf("budget exceeded: %d", stats.VisitedURLs)
	}
}

func TestDomainRestriction(t *testing.T) {
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 200
		cfg.AllowedDomains = []string{"databases.example"}
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	c.Run(context.Background())
	for _, d := range st.All() {
		if !strings.Contains(d.URL, "databases.example") {
			t.Errorf("crawled outside allowed domain: %s", d.URL)
		}
	}
	if st.NumDocs() == 0 {
		t.Fatal("nothing crawled within domain")
	}
}

func TestTunnellingDepthLimits(t *testing.T) {
	rejectAll := func(d classify.Doc) classify.Result {
		return classify.Result{Topic: "ROOT/OTHERS", Confidence: 0.1, Accepted: false}
	}
	// with tunnel depth 0: only the seeds themselves are fetched
	c0, st0, world := testSetup(t, func(cfg *Config) {
		cfg.Classify = rejectAll
		cfg.MaxTunnelDepth = 0
	})
	c0.Seed("ROOT/db", world.SeedURLs()[0])
	c0.Run(context.Background())
	if st0.NumDocs() != 1 {
		t.Fatalf("tunnel=0 stored %d docs", st0.NumDocs())
	}
	// with tunnel depth 2: the crawl reaches two more levels
	c2, st2, world2 := testSetup(t, func(cfg *Config) {
		cfg.Classify = rejectAll
		cfg.MaxTunnelDepth = 2
		cfg.PageBudget = 500
	})
	c2.Seed("ROOT/db", world2.SeedURLs()[0])
	c2.Run(context.Background())
	if st2.NumDocs() <= st0.NumDocs() {
		t.Fatalf("tunnelling had no effect: %d vs %d", st2.NumDocs(), st0.NumDocs())
	}
	for _, d := range st2.All() {
		if d.Depth > 2 {
			t.Errorf("reached depth %d through rejected pages", d.Depth)
		}
	}
}

func TestSharpFocusDigression(t *testing.T) {
	// Sharp focus: accepted documents of a *different* class than the
	// referrer's topic count as digressions and are tunnelled.
	other := func(d classify.Doc) classify.Result {
		return classify.Result{Topic: "ROOT/elsewhere", Confidence: 0.9, Accepted: true}
	}
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.Classify = other
		cfg.Focus = SharpFocus
		cfg.MaxTunnelDepth = 0
	})
	c.Seed("ROOT/db", world.SeedURLs()[0])
	c.Run(context.Background())
	// every doc classified off-referrer-topic, tunnel 1 > 0: only the seed
	if st.NumDocs() != 1 {
		t.Errorf("sharp focus leak: %d docs", st.NumDocs())
	}
}

func TestOnStoredHook(t *testing.T) {
	var count atomic.Int64
	c, _, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 50
		cfg.OnStored = func(d store.Document, r classify.Result) {
			count.Add(1)
			if d.URL == "" {
				t.Error("empty URL in hook")
			}
		}
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	if count.Load() != stats.StoredPages {
		t.Errorf("hook fired %d times, stored %d", count.Load(), stats.StoredPages)
	}
}

func TestContextCancellation(t *testing.T) {
	c, _, world := testSetup(t, nil)
	c.Seed("ROOT/db", world.SeedURLs()...)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan Stats, 1)
	go func() { done <- c.Run(ctx) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

// hangFirst holds the first request it sees until the request's context
// ends, and passes every later one through.
type hangFirst struct {
	inner http.RoundTripper
	hung  chan struct{} // closed once the first request is held
	calls atomic.Int32
}

func (h *hangFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	if h.calls.Add(1) == 1 {
		close(h.hung)
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	return h.inner.RoundTrip(req)
}

// TestAbandonedVisitIsRequeued: a fetch the crawl's end cancels puts its
// item back in the frontier, and the fetcher takes back its dedup marks, so
// the next crawl over the same frontier stores the page instead of
// dismissing it as a duplicate.
func TestAbandonedVisitIsRequeued(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	tr := &hangFirst{inner: world.RoundTripper(), hung: make(chan struct{})}
	cfg := Config{
		Fetcher: fetch.New(fetch.Config{
			Transport: tr,
			Resolver:  dns.NewResolver(dns.Config{}, world.DNSServer()),
			Timeout:   5 * time.Second,
		}, nil, nil),
		Frontier:       frontier.New(frontier.DefaultConfig()),
		Store:          store.New(),
		Classify:       keywordClassifier,
		Workers:        1,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
		Strategy:       BreadthFirst,
		PageBudget:     1,
	}
	c := New(cfg)
	c.Seed("ROOT/db", world.SeedURLs()[0])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-tr.hung
		cancel()
	}()
	if stats := c.Run(ctx); stats.VisitedURLs != 0 {
		t.Fatalf("the cancelled crawl counted %d visits, want 0", stats.VisitedURLs)
	}
	if st := cfg.Frontier.Stats(); st.Queued != 1 {
		t.Fatalf("frontier holds %d queued items after the abandoned visit, want 1", st.Queued)
	}
	if stats := New(cfg).Run(context.Background()); stats.StoredPages != 1 {
		t.Fatalf("the next crawl stored %d pages with %d duplicates, want the abandoned page stored", stats.StoredPages, stats.Duplicates)
	}
}

// cancelAfterFirst ends the crawl as it answers the first request, so that
// fetch succeeds and the worker meets the shutdown check with a page in
// hand; every later request passes through.
type cancelAfterFirst struct {
	inner  http.RoundTripper
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (c *cancelAfterFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(req)
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	return resp, err
}

// TestPageAbandonedAfterFetchIsRequeued: a page fetched whole but
// overtaken by the crawl's end before it is analyzed is abandoned like a
// cancelled fetch — uncounted, requeued, its body released and its dedup
// marks (URL, IP+path, IP+size) taken back — so the next crawl over the
// same frontier stores it instead of dismissing it as a duplicate.
func TestPageAbandonedAfterFetchIsRequeued(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterFirst{inner: world.RoundTripper(), cancel: cancel}
	cfg := Config{
		Fetcher: fetch.New(fetch.Config{
			Transport: tr,
			Resolver:  dns.NewResolver(dns.Config{}, world.DNSServer()),
			Timeout:   5 * time.Second,
		}, nil, nil),
		Frontier:       frontier.New(frontier.DefaultConfig()),
		Store:          store.New(),
		Classify:       keywordClassifier,
		Workers:        1,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
		Strategy:       BreadthFirst,
		PageBudget:     1,
	}
	c := New(cfg)
	c.Seed("ROOT/db", world.SeedURLs()[0])
	if stats := c.Run(ctx); stats.VisitedURLs != 0 || stats.StoredPages != 0 || tr.calls.Load() != 1 {
		t.Fatalf("the cancelled crawl counted %d visits and stored %d pages over %d requests, want 0, 0 over 1", stats.VisitedURLs, stats.StoredPages, tr.calls.Load())
	}
	if st := cfg.Frontier.Stats(); st.Queued != 1 {
		t.Fatalf("frontier holds %d queued items after the abandoned page, want 1", st.Queued)
	}
	if stats := New(cfg).Run(context.Background()); stats.StoredPages != 1 || stats.Duplicates != 0 {
		t.Fatalf("the next crawl stored %d pages with %d duplicates, want the abandoned page stored", stats.StoredPages, stats.Duplicates)
	}
}

func TestLinksAndRedirectsRecorded(t *testing.T) {
	// One worker, so the first seed is fetched and stored before anything
	// else runs. With a pool, the worker holding the seed can stall after
	// its fetch while its peers spend the whole 60-visit budget; the
	// budget-spent cancellation then makes it abandon the fetched page at
	// the shutdown check in process, and the seed has no link rows.
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 60
		cfg.Workers = 1
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	c.Run(context.Background())
	if len(st.Links()) == 0 {
		t.Error("no link rows recorded")
	}
	// seed page's successors include its publications page
	succ := st.Successors(world.SeedURLs()[0])
	if len(succ) == 0 {
		t.Error("seed has no recorded successors")
	}
}

func TestHostLimiter(t *testing.T) {
	l := newHostLimiterDelay(1, 2, 0)
	if !l.Acquire("a.x.example") {
		t.Fatal("first acquire failed")
	}
	acquired := make(chan struct{})
	go func() {
		l.Acquire("a.x.example") // blocks: host cap 1
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("host cap not enforced")
	case <-time.After(30 * time.Millisecond):
	}
	l.Release("a.x.example")
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken")
	}
	// domain cap: a and b on x.example fill the domain (cap 2)
	if !l.Acquire("b.x.example") {
		t.Fatal("second host acquire failed")
	}
	blocked := make(chan struct{})
	go func() {
		l.Acquire("c.x.example")
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("domain cap not enforced")
	case <-time.After(30 * time.Millisecond):
	}
	l.Close()
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not release waiters")
	}
}

func TestRegisteredDomain(t *testing.T) {
	cases := map[string]string{
		"cs00.databases.example": "databases.example",
		"a.b.c.d":                "c.d",
		"example":                "example",
		"x.y":                    "x.y",
	}
	for in, want := range cases {
		if got := RegisteredDomain(in); got != want {
			t.Errorf("RegisteredDomain(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConcurrentStatsConsistency(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 150
		cfg.Workers = 12
		cfg.OnStored = func(d store.Document, r classify.Result) {
			mu.Lock()
			if seen[d.URL] {
				t.Errorf("document stored twice: %s", d.URL)
			}
			seen[d.URL] = true
			mu.Unlock()
		}
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	if int64(len(seen)) != stats.StoredPages || st.NumDocs() != len(seen) {
		t.Errorf("stored=%d hook=%d store=%d", stats.StoredPages, len(seen), st.NumDocs())
	}
}

func TestPerHostDelay(t *testing.T) {
	l := newHostLimiterDelay(4, 8, 40*time.Millisecond)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if !l.Acquire("slowhost.example") {
			t.Fatal("acquire failed")
		}
		l.Release("slowhost.example")
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("3 sequential acquires took %v, want >= 80ms", elapsed)
	}
	// different host is unaffected by the first host's cool-down
	start = time.Now()
	l.Acquire("otherhost.example")
	l.Release("otherhost.example")
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("unrelated host delayed %v", elapsed)
	}
}

func TestCrawlWithPerHostDelay(t *testing.T) {
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.PageBudget = 30
		cfg.PerHostDelay = 2 * time.Millisecond
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	if stats.StoredPages == 0 || st.NumDocs() == 0 {
		t.Fatalf("delayed crawl stored nothing: %+v", stats)
	}
}

// TestFocusedCrawlResistsTrap verifies the §4.2 trap defenses: a focused
// crawl on a world with an unbounded calendar trap terminates within budget
// and wastes almost none of it inside the trap (trap pages carry no topical
// signal, so they are rejected and their links decay away).
func TestFocusedCrawlResistsTrap(t *testing.T) {
	wcfg := corpus.TinyConfig()
	wcfg.WithTrap = true
	world := corpus.Generate(wcfg)
	resolver := dns.NewResolver(dns.Config{}, world.DNSServer())
	f := fetch.New(fetch.Config{
		Transport: world.RoundTripper(),
		Resolver:  resolver,
		Timeout:   5 * time.Second,
	}, nil, nil)
	st := store.New()
	c := New(Config{
		Fetcher:        f,
		Frontier:       frontier.New(frontier.DefaultConfig()),
		Store:          st,
		Classify:       keywordClassifier,
		Workers:        8,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
		PageBudget:     400,
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	done := make(chan Stats, 1)
	go func() { done <- c.Run(context.Background()) }()
	var stats Stats
	select {
	case stats = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("crawl hung in the trap")
	}
	trapStored := 0
	for _, d := range st.All() {
		if strings.Contains(d.URL, "trap.example") {
			trapStored++
		}
	}
	if float64(trapStored) > 0.1*float64(stats.StoredPages) {
		t.Errorf("trap absorbed the crawl: %d of %d stored pages", trapStored, stats.StoredPages)
	}
}

// TestFaultFreeCrawlHasNoErrors: with no fault injected, a crawl at the
// paper's 15 workers fails no visit — over the whole tiny world, and in ten
// crawls that a page budget stops while fetches are in flight, whose
// cancelled fetches are abandoned visits, not failed ones. A failure is
// named by its class and URL. Every crawl visits at most its budget, and
// every visit it counts is stored, a duplicate or an error.
func TestFaultFreeCrawlHasNoErrors(t *testing.T) {
	for i := 0; i <= 10; i++ {
		budget := int64(120)
		if i == 0 {
			budget = 0
		}
		c, _, world := testSetup(t, func(cfg *Config) { cfg.Workers = 15; cfg.PageBudget = budget })
		c.Seed("ROOT/db", world.SeedURLs()...)
		stats := c.Run(context.Background())
		if stats.Errors != 0 || stats.FirstError != "" {
			t.Fatalf("budget %d: %d of %d visits failed, the first %q", budget, stats.Errors, stats.VisitedURLs, stats.FirstError)
		}
		if stats.StoredPages < 100 {
			t.Fatalf("budget %d: stored only %d pages; stats=%+v", budget, stats.StoredPages, stats)
		}
		if budget > 0 && stats.VisitedURLs > budget {
			t.Fatalf("budget %d: visited %d pages", budget, stats.VisitedURLs)
		}
		if n := stats.StoredPages + stats.Duplicates + stats.Errors; n != stats.VisitedURLs {
			t.Fatalf("budget %d: visited %d, but stored %d + duplicates %d + errors %d = %d",
				budget, stats.VisitedURLs, stats.StoredPages, stats.Duplicates, stats.Errors, n)
		}
	}
}

// TestErrorsAreCountedByClass: a failed visit is booked under its class,
// in Stats.FirstError and in crawler_errors_by_class_total.
func TestErrorsAreCountedByClass(t *testing.T) {
	c, _, _ := testSetup(t, func(cfg *Config) { cfg.Workers = 1 })
	const u = "http://no-such-host.invalid/page"
	class := metrics.NewCounter(`crawler_errors_by_class_total{class="no-such-host"}`)
	before := class.Value()
	c.Seed("ROOT/db", u)
	stats := c.Run(context.Background())
	if stats.Errors != 1 || stats.FirstError != "no-such-host "+u {
		t.Fatalf("Errors = %d, FirstError = %q; want 1 and %q", stats.Errors, stats.FirstError, "no-such-host "+u)
	}
	if got := class.Value() - before; got != 1 {
		t.Fatalf("crawler_errors_by_class_total{class=\"no-such-host\"} rose by %d, want 1", got)
	}
}

// TestQuarantinedHostLinksAreNotVisits: links popped for a host the fetch
// layer has already quarantined are dropped before any fetch and counted
// apart — not as visits, and not as host-policy errors.
func TestQuarantinedHostLinksAreNotVisits(t *testing.T) {
	c, _, _ := testSetup(t, func(cfg *Config) { cfg.Workers = 1 })
	const host = "quarantined.example"
	for i := 0; i < 3; i++ {
		c.cfg.Fetcher.Hosts.Failure(host)
	}
	if !c.cfg.Fetcher.Hosts.Bad(host) {
		t.Fatal("three failures did not quarantine the host")
	}
	class := metrics.NewCounter(`crawler_errors_by_class_total{class="host-policy"}`)
	dropped := metrics.NewCounter("crawler_quarantined_links_dropped_total")
	classBefore, droppedBefore := class.Value(), dropped.Value()
	for i := 0; i < 3; i++ {
		c.Seed("ROOT/db", fmt.Sprintf("http://%s/p%d", host, i))
	}
	stats := c.Run(context.Background())
	if stats.VisitedURLs != 0 || stats.Errors != 0 {
		t.Fatalf("visited %d, errors %d; want 0 and 0", stats.VisitedURLs, stats.Errors)
	}
	if got := class.Value() - classBefore; got != 0 {
		t.Fatalf("crawler_errors_by_class_total{class=\"host-policy\"} rose by %d, want 0", got)
	}
	if got := dropped.Value() - droppedBefore; got != 3 {
		t.Fatalf("crawler_quarantined_links_dropped_total rose by %d, want 3", got)
	}
}

// TestCrawlTermsSurviveReopen: every document a crawl stores carries the
// term vector its title and text derive (the producer contract WAL replay
// relies on), and a tiered crawl's documents, reopened from its segments
// and its WAL, have term vectors deep-equal to the ones they had before.
func TestCrawlTermsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	opt := store.TierOptions{MemtableBudget: 1 << 40, DisableCompaction: true}
	st, err := store.OpenTiered(dir, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, _, world := testSetup(t, func(cfg *Config) {
		cfg.Store = st
		cfg.PageBudget = 120
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	if stats := c.Run(context.Background()); stats.StoredPages < 50 {
		t.Fatalf("stored only %d pages", stats.StoredPages)
	}
	// Shard 0's documents reopen from a segment, shard 1's from the WAL.
	if err := st.FreezeShard(0); err != nil {
		t.Fatal(err)
	}
	before := map[string]map[string]int{}
	st.VisitDocs(func(d store.Document) bool {
		if want := textproc.DocTerms(d.Title, d.Text); !reflect.DeepEqual(d.Terms, want) {
			t.Fatalf("crawled %s stored with terms %v, want %v", d.URL, d.Terms, want)
		}
		before[d.URL] = d.Terms
		return true
	})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.OpenTiered(dir, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec := re.Recovery(); rec.Segments == 0 || rec.WALDocs == 0 {
		t.Fatalf("reopen read %d segments and %d WAL documents, want both tiers", rec.Segments, rec.WALDocs)
	}
	after := map[string]map[string]int{}
	re.VisitDocs(func(d store.Document) bool {
		after[d.URL] = d.Terms
		return true
	})
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("term vectors changed across reopen: %d documents before, %d after", len(before), len(after))
	}
}
