package core

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/urlnorm"
	"github.com/bingo-search/bingo/internal/vsm"
)

// Multi-portal tenancy. One Engine hosts many tenants over one shared
// store: each tenant is a full BINGO! portal — its own topic tree,
// bookmark/training set, classifier ensemble, crawl frontier and fetch
// deduper — while the document database, its disk tier, the DNS resolver
// and the host health tracker are shared process-wide.
// Documents carry their TenantID in the store, the crawler tags writes with
// the tenant that scheduled the link, and the search path filters
// per-tenant at the snapshot layer, so one machine can grow many portals
// without multiplying its storage or its politeness state.
//
// The classifier ensemble is published through an atomic pointer:
// retraining builds the next ensemble off to the side (against a pinned
// read view of the store) and swaps it in with one Store — classifyCallback
// and queries never wait on training, and a failed train simply leaves the
// previous ensemble serving.

// Retraining metrics: process-wide totals plus bounded per-tenant series
// (see metrics.TenantCounter for the cardinality cap).
var (
	mRetrains     = metrics.NewCounter("engine_retrains_total")
	mRetrainFails = metrics.NewCounter("engine_retrain_failures_total")
	mRetrainNanos = metrics.NewHistogram("engine_retrain_nanos")
)

// Tenant is one portal hosted by an Engine: a topic tree with its training
// set and classifier ensemble, plus the tenant's own crawl frontier and
// fetch deduper. The zero-ID tenant ("") is the default portal — the one a
// pre-tenancy Engine was, and the one every legacy Engine method operates
// on.
type Tenant struct {
	eng        *Engine
	id         string
	topics     []TopicSpec
	othersURLs []string
	tree       *classify.Tree
	frontier   *frontier.Frontier
	fetcher    *fetch.Fetcher

	// ensemble is the serving classifier, published whole by retrain via
	// one atomic swap. Readers Load it and never observe a half-built
	// ensemble; nil means "not trained yet" (everything classifies to
	// OTHERS).
	ensemble atomic.Pointer[classify.Classifier]

	// trainMu serializes trains (foreground Retrain and the background
	// retrainer). It is never held by read paths, so classification and
	// queries proceed at full speed while a train is running.
	trainMu sync.Mutex

	// mu guards the mutable portal state below. It is held only for quick
	// field access — never across a train or a fetch.
	mu         sync.RWMutex
	training   *classify.TrainingSet
	phase      Phase
	meta       classify.MetaMode
	seedTopics map[string]string // seed URL -> topic path (for re-seeding)
	retrains   int
	trainFails int
}

// TenantStats is one tenant's operational snapshot for the admin plane.
type TenantStats struct {
	ID             string `json:"id"`
	Docs           int    `json:"docs"`
	TrainingDocs   int    `json:"training_docs"`
	Retrains       int    `json:"retrains"`
	TrainFailures  int    `json:"train_failures"`
	Phase          Phase  `json:"phase"`
	FrontierQueued int    `json:"frontier_queued"`
}

// ValidateTenantID enforces the tenant id charset: 1-64 characters from
// [A-Za-z0-9._-]. The restriction keeps tenant ids safe to embed in metric
// labels, cache keys, spill-directory names and URLs without escaping.
// The default tenant's id is the empty string and is created implicitly.
func ValidateTenantID(id string) error {
	if id == "" {
		return errors.New("core: tenant id must not be empty (the default tenant exists implicitly)")
	}
	if len(id) > 64 {
		return fmt.Errorf("core: tenant id %q exceeds 64 characters", id)
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("core: tenant id %q contains %q (allowed: A-Za-z0-9._-)", id, r)
		}
	}
	return nil
}

// newTenant builds one portal over the engine's shared infrastructure. The
// fetcher shares the engine's resolver and host tracker but owns its
// deduper: two tenants may legitimately both crawl the same URL (each stores
// its own row), while politeness and host health are per-machine concerns.
func newTenant(e *Engine, id string, topics []TopicSpec, othersURLs []string) (*Tenant, error) {
	if len(topics) == 0 {
		return nil, errors.New("core: no topics configured")
	}
	tree := classify.NewTree()
	for _, ts := range topics {
		if _, err := tree.Add(ts.Path...); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if len(ts.Seeds) == 0 {
			return nil, fmt.Errorf("core: topic %v has no seeds", ts.Path)
		}
	}
	cfg := e.cfg
	t := &Tenant{
		eng:        e,
		id:         id,
		topics:     topics,
		othersURLs: othersURLs,
		tree:       tree,
		training:   classify.NewTrainingSet(),
		phase:      PhaseInit,
		meta:       cfg.LearnMeta,
		seedTopics: make(map[string]string),
	}
	t.fetcher = fetch.New(fetch.Config{
		Transport: cfg.Transport,
		Resolver:  e.resolver,
		Timeout:   cfg.FetchTimeout,
		Retry: fetch.RetryPolicy{
			MaxAttempts: fetchAttempts,
			BaseDelay:   retryBaseDelay,
			MaxDelay:    retryMaxDelay,
		},
		DegradeTruncated: true,
		LockedDomains:    cfg.LockedDomains,
		RespectRobots:    true,
	}, fetch.NewDeduper(), e.hosts)
	spillDir := ""
	if cfg.FrontierBudget > 0 && cfg.DataDir != "" {
		name := "frontier-spill"
		if id != "" {
			// Per-tenant spill directories: concurrent tenant crawls must
			// not interleave their sorted runs.
			name += "-" + id
		}
		spillDir = filepath.Join(cfg.DataDir, name)
	}
	t.frontier = frontier.New(frontier.Config{
		IncomingLimit: queueLimit,
		OutgoingLimit: 1000,
		TunnelDecay:   0.5,
		Prefetch: func(u string) {
			if e.resolver == nil {
				return
			}
			if p, err := url.Parse(u); err == nil {
				e.resolver.Prefetch(p.Hostname())
			}
		},
		Scheduler:   cfg.Scheduler,
		SpillBudget: cfg.FrontierBudget,
		SpillDir:    spillDir,
		// TopicTerms reads the tenant's serving ensemble lock-free; it is
		// invoked under the frontier's lock, which no trainer ever holds.
		TopicTerms: func(topic string) map[string]float64 {
			if cls := t.ensemble.Load(); cls != nil {
				return cls.TopicTerms(topic, 64)
			}
			return nil
		},
	})
	return t, nil
}

// AddTenant creates and registers a new portal over the engine's shared
// store. The id must satisfy ValidateTenantID and be unused.
func (e *Engine) AddTenant(id string, topics []TopicSpec, othersURLs []string) (*Tenant, error) {
	if err := ValidateTenantID(id); err != nil {
		return nil, err
	}
	t, err := newTenant(e, id, topics, othersURLs)
	if err != nil {
		return nil, err
	}
	e.tenantMu.Lock()
	defer e.tenantMu.Unlock()
	if _, dup := e.tenants[id]; dup {
		return nil, fmt.Errorf("core: tenant %q already exists", id)
	}
	e.tenants[id] = t
	return t, nil
}

// Tenant looks up a registered tenant by id ("" = the default tenant).
func (e *Engine) Tenant(id string) (*Tenant, bool) {
	e.tenantMu.RLock()
	defer e.tenantMu.RUnlock()
	t, ok := e.tenants[id]
	return t, ok
}

// Tenants returns all registered tenants sorted by id (the default tenant,
// whose id is "", first).
func (e *Engine) Tenants() []*Tenant {
	e.tenantMu.RLock()
	out := make([]*Tenant, 0, len(e.tenants))
	for _, t := range e.tenants {
		out = append(out, t)
	}
	e.tenantMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// TenantStats snapshots every tenant's operational counters, sorted by id.
func (e *Engine) TenantStats() []TenantStats {
	ts := e.Tenants()
	out := make([]TenantStats, len(ts))
	for i, t := range ts {
		out[i] = t.Stats()
	}
	return out
}

// ID returns the tenant's id ("" for the default tenant).
func (t *Tenant) ID() string { return t.id }

// Tree returns the tenant's topic tree.
func (t *Tenant) Tree() *classify.Tree { return t.tree }

// Phase returns the tenant's lifecycle phase.
func (t *Tenant) Phase() Phase {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.phase
}

// Retrains returns how many ensembles the tenant has published.
func (t *Tenant) Retrains() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.retrains
}

// TrainFailures returns how many trains failed (each left the previous
// ensemble serving).
func (t *Tenant) TrainFailures() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.trainFails
}

// Classifier returns the tenant's serving ensemble (nil before the first
// successful train). Lock-free: a concurrent retrain publishes the next
// ensemble with one atomic swap.
func (t *Tenant) Classifier() *classify.Classifier { return t.ensemble.Load() }

// TrainingSize returns the number of topic training documents.
func (t *Tenant) TrainingSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.training.Size()
}

// Stats snapshots the tenant's operational counters.
func (t *Tenant) Stats() TenantStats {
	t.mu.RLock()
	st := TenantStats{
		ID:            t.id,
		TrainingDocs:  t.training.Size(),
		Retrains:      t.retrains,
		TrainFailures: t.trainFails,
		Phase:         t.phase,
	}
	t.mu.RUnlock()
	st.Docs = t.eng.store.TenantNumDocs(t.id)
	st.FrontierQueued = t.frontier.Stats().Queued
	return st
}

// classifyCallback adapts the serving ensemble for the crawler. It never
// waits on training: the ensemble is an atomic load and t.mu is only ever
// held for field access, not across a train.
func (t *Tenant) classifyCallback(d classify.Doc) classify.Result {
	cls := t.ensemble.Load()
	if cls == nil {
		return classify.Result{Topic: classify.OthersPath(classify.RootName)}
	}
	t.mu.RLock()
	mode := t.meta
	t.mu.RUnlock()
	return cls.ClassifyWithMode(d, mode)
}

// cloneTrainingSet shallow-copies a training set so a train can run off
// the tenant lock while feedback keeps mutating the live set.
func cloneTrainingSet(ts *classify.TrainingSet) *classify.TrainingSet {
	c := classify.NewTrainingSet()
	for topic, docs := range ts.ByTopic {
		c.ByTopic[topic] = append([]classify.Doc(nil), docs...)
	}
	c.Others = append([]classify.Doc(nil), ts.Others...)
	return c
}

// retrain rebuilds the tenant's idf table from its slice of the shared
// document database (lazy recomputation upon retraining, §2.2), trains
// every topic classifier, and — only on success — publishes the new
// ensemble with one atomic swap. Readers never observe a half-built
// ensemble, and a failed train leaves the previous one serving.
func (t *Tenant) retrain() error {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	start := time.Now()
	t.mu.RLock()
	training := cloneTrainingSet(t.training)
	mode := t.meta
	t.mu.RUnlock()
	// Pinned read view: one pass over the store's per-shard snapshots,
	// restricted to this tenant's documents.
	stats := vsm.NewCorpusStats()
	t.eng.store.VisitDocs(func(d store.Document) bool {
		if d.Tenant == t.id {
			stats.AddDoc(d.Terms)
		}
		return true
	})
	idf := stats.Snapshot()
	cls, err := classify.Train(t.tree, training, idf, classify.Config{
		Spaces:      t.eng.cfg.Spaces,
		Meta:        mode,
		FeatureOpts: t.eng.cfg.FeatureOpts,
		SVM:         t.eng.cfg.SVM,
	})
	if err != nil {
		mRetrainFails.Inc()
		metrics.TenantCounter("tenant_retrain_failures_total", t.id).Inc()
		t.mu.Lock()
		t.trainFails++
		t.mu.Unlock()
		return fmt.Errorf("core: retrain: %w", err)
	}
	t.ensemble.Store(cls)
	t.mu.Lock()
	t.retrains++
	t.mu.Unlock()
	mRetrains.Inc()
	mRetrainNanos.ObserveSince(start)
	metrics.TenantCounter("tenant_retrains_total", t.id).Inc()
	return nil
}

// Retrain is the public retraining entry point (used by the feedback loop
// and the background retrainer).
func (t *Tenant) Retrain() error { return t.retrain() }

// fetchDoc retrieves and analyzes one URL outside the crawl loop
// (bootstrap/training acquisition).
func (t *Tenant) fetchDoc(ctx context.Context, rawURL string) (classify.Doc, *htmldoc.Document, *fetch.Result, error) {
	res, err := t.fetcher.Fetch(ctx, rawURL)
	if err != nil {
		return classify.Doc{}, nil, nil, err
	}
	final, err := url.Parse(res.FinalURL)
	if err != nil {
		return classify.Doc{}, nil, nil, err
	}
	doc, err := htmldoc.Convert(res.ContentType, res.Body, urlnorm.LinkResolver(final))
	res.ReleaseBody() // handlers copy what they keep; recycle the buffer
	if err != nil {
		return classify.Doc{}, nil, nil, err
	}
	stems := t.eng.pipe.StemsParts(doc.Title, doc.Text)
	return classify.Doc{ID: res.FinalURL, Input: features.DocInput{Stems: stems}}, doc, res, nil
}

// Bootstrap fetches the tenant's seed bookmarks and OTHERS documents,
// builds the initial training set and trains the first ensemble. Seed
// documents are stored like every crawled page (crawler.StorePage: their
// redirects, out-links and retrieval time included), flagged as training
// data and tagged with the tenant, through one workspace flushed before
// the first train reads the store; their out-links become the tenant's
// initial crawl frontier.
func (t *Tenant) Bootstrap(ctx context.Context) error {
	e := t.eng
	var pending []frontier.Item // the seeds' out-links, queued after the first train
	ws := e.store.NewWorkspace(e.cfg.BatchSize)
	for _, tspec := range t.topics {
		topicPath := classify.RootName
		for _, seg := range tspec.Path {
			topicPath += "/" + seg
		}
		for _, seedURL := range tspec.Seeds {
			// The paper treats frames as separate documents (its Gray seed
			// "has two frames, which are handled by our crawler as separate
			// documents" — 3 training pages from 2 bookmarks): a seed's
			// frame sources queue behind it and become training documents
			// themselves.
			queue := []string{seedURL}
			for i := 0; i < len(queue); i++ {
				cdoc, hdoc, res, err := t.fetchDoc(ctx, queue[i])
				switch {
				case err == nil:
				case i > 0, errors.Is(err, fetch.ErrDuplicate):
					// A frame is best-effort, and the multi-fingerprint
					// dedup (§4.2) has a small false-dismissal risk; losing
					// either must not abort the crawl.
					continue
				default:
					return fmt.Errorf("core: bootstrap seed %s: %w", seedURL, err)
				}
				t.mu.Lock()
				t.training.Add(topicPath, cdoc)
				if i == 0 {
					t.seedTopics[seedURL] = topicPath
				}
				t.mu.Unlock()
				crawler.StorePage(ws, store.Document{
					Tenant: t.id, URL: queue[i], Title: hdoc.Title, Topic: topicPath,
					Text: hdoc.Text, Terms: textproc.Counts(cdoc.Input.Stems), IsTraining: true,
				}, res, hdoc)
				for _, l := range hdoc.Links {
					pending = append(pending, frontier.Item{URL: l.URL, Topic: topicPath, Priority: 1e6,
						Depth: 1, Referrer: "seed", Anchor: l.Anchor})
				}
				if i == 0 {
					queue = append(queue, hdoc.Frames...)
				}
			}
		}
	}
	if err := ws.Flush(); err != nil {
		return fmt.Errorf("core: bootstrap store: %w", err)
	}
	var others []classify.Doc
	for _, ourl := range t.othersURLs {
		cdoc, _, _, err := t.fetchDoc(ctx, ourl)
		if err != nil {
			continue // OTHERS docs are best-effort
		}
		others = append(others, cdoc)
	}
	if len(others) == 0 {
		return errors.New("core: no OTHERS documents could be fetched (configure OthersURLs)")
	}
	t.mu.Lock()
	t.training.Others = append(t.training.Others, others...)
	t.mu.Unlock()
	if err := t.retrain(); err != nil {
		return err
	}
	// Seed the frontier with the out-links of the bookmarks (the seeds
	// themselves are already fetched and would be dismissed as duplicates).
	for _, it := range pending {
		t.frontier.Push(it)
	}
	return nil
}

// AddTrainingDoc lets the user promote a crawled document to training data
// (interactive feedback, §3.6); call Retrain afterwards.
func (t *Tenant) AddTrainingDoc(topicPath, docURL string) error {
	e := t.eng
	d, err := e.store.GetDoc(t.id, docURL)
	if err != nil {
		return err
	}
	stems := e.pipe.Stems(d.Title + " " + d.Text)
	t.mu.Lock()
	t.training.Add(topicPath, classify.Doc{
		ID:    d.URL,
		Input: features.DocInput{Stems: stems, Anchors: e.store.InAnchors(d.URL)},
	})
	t.mu.Unlock()
	return nil
}

// AddTrainingText adds a virtual training document for a topic — either a
// document derived from the user's query terms (the expert-search bootstrap
// of §2) or an intellectually trimmed page whose irrelevant parts were
// removed (§2.6). Call Retrain afterwards.
func (t *Tenant) AddTrainingText(topicPath, id, text string) {
	stems := t.eng.pipe.Stems(text)
	t.mu.Lock()
	t.training.Add(topicPath, classify.Doc{
		ID:    id,
		Input: features.DocInput{Stems: stems},
	})
	t.mu.Unlock()
}

// RemoveTrainingDoc drops a document from every topic's training set
// (interactive feedback, §3.6); call Retrain afterwards.
func (t *Tenant) RemoveTrainingDoc(docURL string) {
	t.mu.Lock()
	for topic, docs := range t.training.ByTopic {
		kept := docs[:0]
		for _, d := range docs {
			if d.ID != docURL {
				kept = append(kept, d)
			}
		}
		t.training.ByTopic[topic] = kept
	}
	t.mu.Unlock()
}
