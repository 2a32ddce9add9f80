package core

import (
	"context"
	"net/url"
	"sync/atomic"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

// Learn runs the default tenant's learning phase.
func (e *Engine) Learn(ctx context.Context) (crawler.Stats, error) { return e.def.Learn(ctx) }

// Harvest runs the default tenant's harvesting phase.
func (e *Engine) Harvest(ctx context.Context) (crawler.Stats, error) { return e.def.Harvest(ctx) }

// HarvestN runs the default tenant's harvest with an explicit page budget.
func (e *Engine) HarvestN(ctx context.Context, budget int64) (crawler.Stats, error) {
	return e.def.HarvestN(ctx, budget)
}

// Run executes the default tenant's full lifecycle: Bootstrap, Learn,
// Harvest.
func (e *Engine) Run(ctx context.Context) (learn, harvest crawler.Stats, err error) {
	return e.def.Run(ctx)
}

// Learn runs the learning phase (§2.6): a sharp-focus, mostly depth-first
// crawl restricted to the domains of the training data, followed by
// archetype selection and retraining. It returns the phase's crawl stats.
// The crawl writes are tagged with the tenant, and the classify callback
// reads the tenant's atomically published ensemble.
func (t *Tenant) Learn(ctx context.Context) (crawler.Stats, error) {
	e := t.eng
	t.mu.Lock()
	t.phase = PhaseLearning
	t.meta = e.cfg.LearnMeta
	t.mu.Unlock()

	defer e.flushSink()
	cfg := t.crawlConfig(crawler.SharpFocus, crawler.DepthFirst, e.cfg.LearnBudget)
	cfg.MaxDepth = e.cfg.LearnDepth
	cfg.AllowedDomains = t.seedDomains()

	// Periodic retraining (§2.6): pause the crawl each time RetrainEvery
	// documents have been classified with confidence above the threshold,
	// promote archetypes, retrain, and resume.
	var stats crawler.Stats
	if e.cfg.RetrainEvery > 0 {
		var qualifying atomic.Int64
		var pause context.CancelFunc
		cfg.OnStored = func(d store.Document, r classify.Result) {
			if r.Accepted && r.Confidence >= e.cfg.RetrainConfidence {
				if qualifying.Add(1) == int64(e.cfg.RetrainEvery) {
					pause()
				}
			}
		}
		c := crawler.New(cfg)
		for {
			var chunkCtx context.Context
			chunkCtx, pause = context.WithCancel(ctx)
			stats = c.Run(chunkCtx)
			paused := qualifying.Load() >= int64(e.cfg.RetrainEvery)
			pause()
			if !paused || ctx.Err() != nil || stats.VisitedURLs >= e.cfg.LearnBudget {
				break
			}
			if err := t.promoteArchetypes(); err != nil {
				return stats, err
			}
			qualifying.Store(0)
		}
	} else {
		stats = crawler.New(cfg).Run(ctx)
	}
	if err := t.promoteArchetypes(); err != nil {
		return stats, err
	}
	return stats, nil
}

// Harvest runs the harvesting phase (§2.6): retrained classifier, soft
// focus, prioritized breadth-first strategy, no domain restriction; the
// crawler is resumed with the best hubs from the link analysis.
func (t *Tenant) Harvest(ctx context.Context) (crawler.Stats, error) {
	return t.HarvestN(ctx, t.eng.cfg.HarvestBudget)
}

// HarvestN is Harvest with an explicit page budget. Calling it again after
// a completed harvest resumes the crawl with additional budget — the paper
// paused its crawl after 90 minutes to assess intermediate results and then
// resumed it for a total of 12 hours (§5.2).
func (t *Tenant) HarvestN(ctx context.Context, budget int64) (crawler.Stats, error) {
	e := t.eng
	t.mu.Lock()
	t.phase = PhaseHarvesting
	t.meta = e.cfg.HarvestMeta
	t.mu.Unlock()

	t.reseedWithHubs()

	defer e.flushSink()
	stats := crawler.New(t.crawlConfig(crawler.SoftFocus, crawler.BreadthFirst, budget)).Run(ctx)
	t.mu.Lock()
	t.phase = PhaseDone
	t.mu.Unlock()
	return stats, nil
}

// flushSink pushes out what the sink still buffers at the end of a crawl
// phase; undeliverable batches stay parked in it, its own to account for.
func (e *Engine) flushSink() {
	if e.cfg.Sink != nil {
		_ = e.cfg.Sink.Flush()
	}
}

// crawlConfig is the crawler configuration both phases share, with the
// phase's focus, strategy and page budget; Learn adds its depth bound and
// seed domains.
func (t *Tenant) crawlConfig(focus crawler.Focus, strategy crawler.Strategy, budget int64) crawler.Config {
	e := t.eng
	return crawler.Config{
		Tenant:         t.id,
		Fetcher:        t.fetcher,
		Frontier:       t.frontier,
		Store:          e.store,
		Classify:       t.classifyCallback,
		Workers:        e.cfg.Workers,
		MaxPerHost:     e.cfg.MaxPerHost,
		MaxPerDomain:   e.cfg.MaxPerDomain,
		PerHostDelay:   e.cfg.PerHostDelay,
		BatchSize:      e.cfg.BatchSize,
		FlushInterval:  e.cfg.FlushInterval,
		MaxTunnelDepth: e.cfg.MaxTunnelDepth,
		PageBudget:     budget,
		Focus:          focus,
		Strategy:       strategy,
	}
}

// Run executes the tenant's full lifecycle: Bootstrap, Learn, Harvest.
func (t *Tenant) Run(ctx context.Context) (learn, harvest crawler.Stats, err error) {
	if err = t.Bootstrap(ctx); err != nil {
		return learn, harvest, err
	}
	if learn, err = t.Learn(ctx); err != nil {
		return learn, harvest, err
	}
	harvest, err = t.Harvest(ctx)
	return learn, harvest, err
}

// seedDomains collects the registered domains of all seed URLs (learning
// phase restriction, §2.6).
func (t *Tenant) seedDomains() []string {
	seen := map[string]struct{}{}
	var out []string
	t.mu.RLock()
	defer t.mu.RUnlock()
	for seedURL := range t.seedTopics {
		u, err := url.Parse(seedURL)
		if err != nil {
			continue
		}
		d := crawler.RegisteredDomain(u.Hostname())
		if _, dup := seen[d]; !dup {
			seen[d] = struct{}{}
			out = append(out, d)
		}
	}
	return out
}

// reseedWithHubs pushes the best hubs of each topic's link analysis onto
// the frontier: uncrawled hub URLs directly, and the uncrawled successors
// of hubs that are already stored. "Crawled" is judged against the
// tenant's own rows — another portal having fetched a URL does not make it
// this portal's document.
func (t *Tenant) reseedWithHubs() {
	e := t.eng
	for _, node := range t.tree.Nodes() {
		_, hubs := t.linkAnalysis(node.Path)
		pushed := 0
		for _, h := range hubs {
			if pushed >= 2*e.cfg.NAuth {
				break
			}
			if !e.store.ContainsDoc(t.id, h.ID) {
				t.frontier.Forget(h.ID)
				if t.frontier.Push(frontier.Item{URL: h.ID, Topic: node.Path, Priority: 1e6, Referrer: "hub-reseed"}) {
					pushed++
				}
				continue
			}
			for _, succ := range e.store.Successors(h.ID) {
				if e.store.ContainsDoc(t.id, succ) {
					continue
				}
				t.frontier.Forget(succ)
				if t.frontier.Push(frontier.Item{URL: succ, Topic: node.Path, Priority: 1e5, Referrer: h.ID}) {
					pushed++
				}
			}
		}
	}
	// The existing frontier contents stay queued — "the crawler is resumed".
}
