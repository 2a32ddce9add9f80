package crawler

// Scheduler equivalence and determinism at crawl level. The frontier's
// ordering policy decides WHEN a link is fetched; with an accept-all
// classifier and a run to drain it must never decide WHETHER. These tests
// pin that: the fifo-priority scheduler is interchangeable with the
// pre-refactor default across worker counts, and every scheduler fetches
// the same page set under every chaos profile regardless of parallelism.
//
// The rig disables every order-sensitive resilience knob: an
// effectively-infinite quarantine threshold (consecutive-failure counts
// depend on interleaving) and no per-host cap. What remains is hash-keyed
// fault injection, which is deterministic per (URL, attempt) no matter
// how workers interleave.

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

type schedRun struct {
	scheduler string // "" = whatever frontier.DefaultConfig picks
	workers   int
	profile   string // "off" for the fault-free baseline
	seed      int64
	budget    int // frontier spill budget; 0 = all in memory
}

// runSchedCrawl crawls the world to drain under r and returns the stored
// pages as sorted dedup-class keys (see crawlKeySet for why host#size, not
// URL) plus the final stats.
func runSchedCrawl(t *testing.T, world *corpus.World, r schedRun) ([]string, Stats) {
	t.Helper()
	transport := world.RoundTripper()
	primary := dns.Server(world.DNSServer())
	secondary := dns.Server(world.DNSServer())
	if r.profile != "off" {
		prof, err := faults.ByName(r.profile)
		if err != nil {
			t.Fatal(err)
		}
		prof.Exempt = seedHosts(world)
		plane := faults.New(r.seed, prof)
		transport = plane.Wrap(transport)
		primary = plane.WrapDNS(0, primary)
		secondary = plane.WrapDNS(1, secondary)
	}
	resolver := dns.NewResolver(dns.Config{
		Timeout:      25 * time.Millisecond,
		ServerBadFor: 5 * time.Second,
	}, primary, secondary)
	f := fetch.New(fetch.Config{
		Transport: transport,
		Resolver:  resolver,
		Timeout:   100 * time.Millisecond,
		Retry: fetch.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		DegradeTruncated: true,
	}, nil, fetch.NewHostTracker(1<<30))

	fcfg := frontier.DefaultConfig()
	fcfg.Scheduler = r.scheduler
	if r.budget > 0 {
		fcfg.SpillBudget = r.budget
		fcfg.SpillDir = t.TempDir()
	}
	st := store.New()
	c := New(Config{
		Fetcher:        f,
		Frontier:       frontier.New(fcfg),
		Store:          st,
		Classify:       acceptAll,
		Workers:        r.workers,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
	})
	c.Seed("ROOT/db", world.SeedURLs()...)

	done := make(chan Stats, 1)
	go func() { done <- c.Run(context.Background()) }()
	var stats Stats
	select {
	case stats = <-done:
	case <-time.After(90 * time.Second):
		t.Fatalf("crawl deadlocked: %+v", r)
	}

	var keys []string
	for _, d := range st.All() {
		if p, ok := world.Pages[d.URL]; ok {
			keys = append(keys, fmt.Sprintf("%s#%d", p.Host, len(p.Body)))
		} else {
			keys = append(keys, d.URL)
		}
	}
	sort.Strings(keys)
	if stats.StoredPages+stats.Duplicates+stats.Errors != stats.VisitedURLs {
		t.Errorf("accounting broken under %+v: %+v", r, stats)
	}
	return keys, stats
}

func diffKeySets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: stored %d pages, baseline stored %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: stored sets diverge at %d: %q vs baseline %q", label, i, got[i], want[i])
		}
	}
}

// TestFIFOSchedulerMatchesLegacyDefault is the crawl-level half of the
// refactor equivalence proof (the frontier package holds the pop-order
// half against a reference model): an explicitly selected fifo-priority
// scheduler must store exactly the pages the default configuration does,
// at every worker count. Run under -race this also shakes the
// scheduler-under-frontier-mutex contract.
func TestFIFOSchedulerMatchesLegacyDefault(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	base, bstats := runSchedCrawl(t, world, schedRun{scheduler: "", workers: 1, profile: "off"})
	if len(base) == 0 {
		t.Fatal("baseline crawl stored nothing")
	}
	if bstats.StoredPages != int64(len(base)) {
		t.Errorf("baseline stats report %d stored, store holds %d", bstats.StoredPages, len(base))
	}
	for _, workers := range []int{1, 4, 12} {
		got, _ := runSchedCrawl(t, world, schedRun{
			scheduler: frontier.SchedulerFIFOPriority, workers: workers, profile: "off",
		})
		diffKeySets(t, fmt.Sprintf("fifo-priority/workers=%d", workers), base, got)
	}
}

// TestSchedulerDeterminismMatrix is the full matrix: every scheduler, three
// chaos profiles, two worker counts — all must fetch the identical page
// set, because with accept-all classification and a drain run the ordering
// policy may only change WHEN a page is reached, never WHETHER. Divergence
// here means a scheduler drops or duplicates links under contention or
// faults.
func TestSchedulerDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is 24 crawls; skipped in -short")
	}
	world := corpus.Generate(corpus.TinyConfig())
	for _, profile := range []string{"off", "default", "flaky"} {
		profile := profile
		t.Run(profile, func(t *testing.T) {
			base, _ := runSchedCrawl(t, world, schedRun{
				scheduler: frontier.SchedulerFIFOPriority, workers: 1, profile: profile, seed: 42,
			})
			if len(base) == 0 {
				t.Fatalf("baseline crawl under %s stored nothing", profile)
			}
			for _, scheduler := range frontier.SchedulerNames() {
				for _, workers := range []int{1, 4} {
					if scheduler == frontier.SchedulerFIFOPriority && workers == 1 {
						continue // the baseline itself
					}
					got, _ := runSchedCrawl(t, world, schedRun{
						scheduler: scheduler, workers: workers, profile: profile, seed: 42,
					})
					diffKeySets(t, fmt.Sprintf("%s/workers=%d/%s", scheduler, workers, profile), base, got)
				}
			}
		})
	}
}

// TestSpilledFrontierFetchesSameSet: under every scheduler, a frontier
// squeezed into a 48-link memory budget (everything else on disk) must
// fetch exactly the page set an unbounded one does — the spill tier is a
// placement decision, not a scheduling one.
func TestSpilledFrontierFetchesSameSet(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	for _, scheduler := range frontier.SchedulerNames() {
		base, _ := runSchedCrawl(t, world, schedRun{
			scheduler: scheduler, workers: 4, profile: "off",
		})
		got, _ := runSchedCrawl(t, world, schedRun{
			scheduler: scheduler, workers: 4, profile: "off", budget: 48,
		})
		diffKeySets(t, scheduler+"/budget=48", base, got)
	}
}
