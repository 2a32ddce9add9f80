package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// Phase names a tenant's lifecycle stage.
type Phase int

// Tenant phases.
const (
	PhaseInit Phase = iota
	PhaseLearning
	PhaseHarvesting
	PhaseDone
)

// Engine hosts one or more focused-crawl portals (tenants) over a single
// shared crawl database. The infrastructure every portal shares — the store
// with its disk tier, the DNS resolver, the host health tracker, the text
// pipeline and the search engine — lives here; everything portal-specific
// (topic tree, training set, classifier ensemble, frontier, dedup) lives in
// Tenant. An Engine built by New has exactly one tenant, the default one,
// and every legacy single-portal method delegates to it, so pre-tenancy
// callers behave bit-identically.
type Engine struct {
	cfg      Config
	store    *store.Store
	resolver *dns.Resolver
	hosts    *fetch.HostTracker
	pipe     *textproc.Pipeline

	// searchMu guards the cached search engine. Caching it (instead of
	// constructing one per Search() call) preserves the search snapshot
	// and its epoch-keyed caches across queries.
	searchMu  sync.Mutex
	searchEng *search.Engine

	// Tenant registry. def is the implicit default tenant (id ""), always
	// present and also reachable through the map.
	tenantMu sync.RWMutex
	tenants  map[string]*Tenant
	def      *Tenant

	// Background goroutine lifecycle: the retrainer (and any future
	// background workers) register on wg and exit when stopCh closes.
	// Close is idempotent and stops them all before closing the store.
	stopCh      chan struct{}
	wg          sync.WaitGroup
	retrainerOn atomic.Bool
	closeOnce   sync.Once
	closeErr    error
}

// New builds an engine from cfg. The default tenant's topic tree is derived
// from cfg.Topics; Bootstrap must be called before crawling.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.WithDefaults()

	var servers []dns.Server
	for i, spec := range cfg.DNSServers {
		table := make(map[string]dns.Record, len(spec.Table))
		for h, ip := range spec.Table {
			table[h] = dns.Record{Host: h, IP: ip}
		}
		var srv dns.Server = dns.NewStaticServer(table)
		if cfg.DNSMiddleware != nil {
			srv = cfg.DNSMiddleware(i, srv)
		}
		servers = append(servers, srv)
	}
	var resolver *dns.Resolver
	if len(servers) > 0 {
		resolver = dns.NewResolver(dns.Config{}, servers...)
	}

	if err := frontier.ValidateScheduler(cfg.Scheduler); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	st, err := store.Open(cfg.DataDir, cfg.StoreShards, store.TierOptions{
		MemtableBudget: cfg.MemtableBudget,
		WALSync:        cfg.WALSync,
		CompactFanout:  cfg.CompactFanout,
	})
	if err != nil {
		return nil, fmt.Errorf("core: open data dir %s: %w", cfg.DataDir, err)
	}
	st.SetSink(cfg.Sink)

	e := &Engine{
		cfg:      cfg,
		store:    st,
		resolver: resolver,
		hosts:    fetch.NewHostTracker(maxRetries),
		pipe:     textproc.NewPipeline(),
		tenants:  make(map[string]*Tenant),
		stopCh:   make(chan struct{}),
	}
	def, err := newTenant(e, "", cfg.Topics, cfg.OthersURLs)
	if err != nil {
		st.Close()
		return nil, err
	}
	e.def = def
	e.tenants[""] = def
	return e, nil
}

// Tree returns the default tenant's topic tree.
func (e *Engine) Tree() *classify.Tree { return e.def.tree }

// Store returns the shared crawl database.
func (e *Engine) Store() *store.Store { return e.store }

// Close shuts the engine down: it stops every background goroutine (the
// continuous retrainer included), then releases the crawl database. For a
// tiered (disk-backed) store that stops the background compactor, syncs
// the write-ahead logs, and closes the segment readers. Close is
// idempotent — every call after the first returns the first call's error.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.stopCh)
		e.wg.Wait()
		e.closeErr = e.store.Close()
	})
	return e.closeErr
}

// StartRetrainer launches the continuous background retrainer: every
// interval it retrains each tenant that has training data and atomically
// publishes the new ensemble (see Tenant.retrain — classification and
// queries never wait, and a failed train leaves the old ensemble serving).
// It returns false if the interval is non-positive or a retrainer is
// already running. The retrainer stops when the engine is closed.
func (e *Engine) StartRetrainer(interval time.Duration) bool {
	if interval <= 0 {
		return false
	}
	if !e.retrainerOn.CompareAndSwap(false, true) {
		return false
	}
	select {
	case <-e.stopCh: // already closed
		e.retrainerOn.Store(false)
		return false
	default:
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-e.stopCh:
				return
			case <-tick.C:
				e.retrainAll()
			}
		}
	}()
	return true
}

// retrainAll retrains every tenant that has any training data. Errors are
// recorded per tenant (TrainFailures, tenant_retrain_failures_total) and
// do not stop the sweep — a portal with a broken training set must not
// stall its neighbors.
func (e *Engine) retrainAll() {
	for _, t := range e.Tenants() {
		if t.TrainingSize() == 0 {
			continue
		}
		_ = t.retrain()
	}
}

// Phase returns the default tenant's lifecycle phase.
func (e *Engine) Phase() Phase { return e.def.Phase() }

// Retrains returns how many times the default tenant's classifier has been
// retrained.
func (e *Engine) Retrains() int { return e.def.Retrains() }

// Classifier returns the default tenant's serving ensemble (nil before
// Bootstrap).
func (e *Engine) Classifier() *classify.Classifier { return e.def.Classifier() }

// Bootstrap fetches the default tenant's seed bookmarks and OTHERS
// documents, builds the initial training set and trains the first
// classifier.
func (e *Engine) Bootstrap(ctx context.Context) error { return e.def.Bootstrap(ctx) }

// Retrain is the default tenant's public retraining entry point (used by
// the feedback loop).
func (e *Engine) Retrain() error { return e.def.Retrain() }

// Search returns the local search engine over the shared crawl database
// (§3.6). The engine is cached so repeated queries reuse the search
// snapshot and the idf/authority caches instead of rebuilding them per
// call. Tenant isolation happens per query: set search.Query.Tenant to
// scope results to one portal.
func (e *Engine) Search() *search.Engine {
	e.searchMu.Lock()
	defer e.searchMu.Unlock()
	if e.searchEng == nil {
		e.searchEng = search.New(e.store)
	}
	return e.searchEng
}

// AddTrainingDoc promotes a crawled document of the default tenant to
// training data (interactive feedback, §3.6); call Retrain afterwards.
func (e *Engine) AddTrainingDoc(topicPath, docURL string) error {
	return e.def.AddTrainingDoc(topicPath, docURL)
}

// AddTrainingText adds a virtual training document to the default tenant;
// call Retrain afterwards.
func (e *Engine) AddTrainingText(topicPath, id, text string) {
	e.def.AddTrainingText(topicPath, id, text)
}

// RemoveTrainingDoc drops a document from the default tenant's training
// set (interactive feedback, §3.6); call Retrain afterwards.
func (e *Engine) RemoveTrainingDoc(docURL string) { e.def.RemoveTrainingDoc(docURL) }

// TrainingSize returns the default tenant's training document count.
func (e *Engine) TrainingSize() int { return e.def.TrainingSize() }

// RuntimeStats aggregates the operational counters of the engine's
// subsystems — the numbers an operator watches during an overnight crawl.
// Tenant-specific numbers (frontier, dedup, training) are the default
// tenant's; host health and DNS counters are process-wide.
type RuntimeStats struct {
	StoredDocs      int
	TrainingDocs    int
	Retrains        int
	FrontierQueued  int
	FrontierPushed  int64
	FrontierDropped int64
	DuplicatesSeen  int64
	SlowHosts       int
	BadHosts        int
	DNSHits         int64
	DNSMisses       int64
	DNSFailures     int64
	DNSFailovers    int64
	// QuarantinedHosts lists the hosts excluded as bad during the crawl.
	QuarantinedHosts []string
}

// Runtime returns a snapshot of the operational counters.
func (e *Engine) Runtime() RuntimeStats {
	t := e.def
	fs := t.frontier.Stats()
	slow, bad := t.fetcher.Hosts.Counts()
	rs := RuntimeStats{
		StoredDocs:      e.store.NumDocs(),
		TrainingDocs:    t.TrainingSize(),
		Retrains:        t.Retrains(),
		FrontierQueued:  fs.Queued,
		FrontierPushed:  fs.Pushed,
		FrontierDropped: fs.DroppedFull + fs.DroppedSeen,
		DuplicatesSeen:  t.fetcher.Dedup.Skipped(),
		SlowHosts:       slow,
		BadHosts:        bad,
	}
	rs.QuarantinedHosts = t.fetcher.Hosts.BadHosts()
	if e.resolver != nil {
		ds := e.resolver.Stats()
		rs.DNSHits, rs.DNSMisses, rs.DNSFailures = ds.Hits, ds.Misses, ds.Failures
		rs.DNSFailovers = ds.Failovers
	}
	return rs
}

// Fetcher exposes the default tenant's fetch layer (chaos harness and
// diagnostics).
func (e *Engine) Fetcher() *fetch.Fetcher { return e.def.fetcher }

// Resolver exposes the engine's shared DNS resolver (nil when no servers
// are configured).
func (e *Engine) Resolver() *dns.Resolver { return e.resolver }
