package experiments

import (
	"context"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

// RunUnfocusedBaseline crawls the world breadth-first from the same seeds
// with no classifier at all (every document accepted with neutral
// confidence) — the generic-crawler baseline the focused-crawling paradigm
// argues against (§1.2). It returns the crawl stats and the stored URLs.
func RunUnfocusedBaseline(ctx context.Context, w *corpus.World, budget int64) (crawler.Stats, []string) {
	resolver := dns.NewResolver(dns.Config{}, w.DNSServer())
	f := fetch.New(fetch.Config{
		Transport: w.RoundTripper(),
		Resolver:  resolver,
		Timeout:   5 * time.Second,
	}, nil, nil)
	st := store.New()
	c := crawler.New(crawler.Config{
		Fetcher:  f,
		Frontier: frontier.New(frontier.DefaultConfig()),
		Store:    st,
		Classify: func(d classify.Doc) classify.Result {
			return classify.Result{Topic: "ROOT/any", Confidence: 0.5, Accepted: true}
		},
		Workers:    15,
		PageBudget: budget,
		Focus:      crawler.SoftFocus,
		Strategy:   crawler.BreadthFirst,
	})
	c.Seed("ROOT/any", w.SeedURLs()...)
	stats := c.Run(ctx)
	var stored []string
	for _, d := range st.All() {
		stored = append(stored, d.URL)
	}
	return stats, stored
}

// TunnellingAblation reruns the portal crawl at different tunnelling depths
// (§3.3; the paper uses 2). The budget should be large enough to saturate
// the tunnel-free reachable subgraph — the interesting effect is that
// documents "behind" topic-unspecific welcome pages are unreachable without
// tunnelling no matter how long the crawl runs.
func TunnellingAblation(ctx context.Context, w *corpus.World, budget int64, depths []int) (map[int]*PortalRun, error) {
	return tunnellingAblation(ctx, w, budget, depths, 0)
}

// tunnellingAblation is TunnellingAblation at a given crawler thread count
// (0 = the engine default); the test pins one worker so that the runs it
// compares differ in tunnelling depth only, not in interleaving.
func tunnellingAblation(ctx context.Context, w *corpus.World, budget int64, depths []int, workers int) (map[int]*PortalRun, error) {
	out := map[int]*PortalRun{}
	for _, d := range depths {
		depth := d
		run, err := RunPortal(ctx, w, budget/4, budget-budget/4, func(c *coreConfig) {
			c.Workers = workers
			c.MaxTunnelDepth = depth
			if depth == 0 {
				c.MaxTunnelDepth = -1 // core treats 0 as "use default"; -1 clamps to 0
			}
		})
		if err != nil {
			return nil, err
		}
		out[d] = run
	}
	return out, nil
}

// ArchetypeAblation compares the full learning phase against one with
// archetype promotion disabled (§3.2).
func ArchetypeAblation(ctx context.Context, w *corpus.World, budget int64) (withArch, withoutArch *PortalRun, err error) {
	withArch, err = RunPortal(ctx, w, budget/4, budget-budget/4, nil)
	if err != nil {
		return nil, nil, err
	}
	withoutArch, err = RunPortal(ctx, w, budget/4, budget-budget/4, func(c *coreConfig) {
		c.DisableArchetypes = true
	})
	return withArch, withoutArch, err
}

// TwoPhaseAblation compares learn-then-harvest against harvest-only at the
// same total budget (§2.6).
func TwoPhaseAblation(ctx context.Context, w *corpus.World, budget int64) (twoPhase, harvestOnly *PortalRun, err error) {
	twoPhase, err = RunPortal(ctx, w, budget/4, budget-budget/4, nil)
	if err != nil {
		return nil, nil, err
	}
	// harvest-only: bootstrap then a single harvesting crawl
	eng, err := NewPortalEngine(w, 1, budget, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := eng.Bootstrap(ctx); err != nil {
		return nil, nil, err
	}
	hstats, err := eng.Harvest(ctx)
	if err != nil {
		return nil, nil, err
	}
	harvestOnly = &PortalRun{Engine: eng, Harvest: hstats}
	for _, d := range eng.Store().All() {
		harvestOnly.Stored = append(harvestOnly.Stored, d.URL)
	}
	for _, d := range eng.Store().ByTopic("ROOT/databases") {
		harvestOnly.Ranked = append(harvestOnly.Ranked, d.URL)
	}
	return twoPhase, harvestOnly, nil
}
