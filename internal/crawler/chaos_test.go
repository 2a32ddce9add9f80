package crawler

// The chaos suite: full crawls against the synthetic web with the seeded
// fault-injection plane (internal/faults) spliced into the transport and
// the DNS simulation. Each profile run must terminate, keep the crawl
// accounting invariant, quarantine every poisoned host it touched, and —
// under the default acceptance mix — still harvest at least 90% of the
// positive pages a fault-free crawl finds. A separate test proves that one
// seed replays to an identical result set.
//
// The suite runs at test speed (millisecond backoffs and timeouts) so it
// stays inside plain `go test ./...`; `make chaos` re-runs it under -race
// across the seed matrix in CHAOS_SEEDS.

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// chaosSeeds returns the seed matrix: CHAOS_SEEDS="1,7,23" from the
// Makefile's chaos target, or just {1} in a plain `go test` run.
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1}
	}
	var out []int64
	for _, part := range strings.Split(env, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return []int64{1}
	}
	return out
}

// seedHosts lists the hosts of the world's seed URLs; they are exempted
// from fault classes so every chaos crawl has somewhere to start.
func seedHosts(world *corpus.World) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range world.SeedURLs() {
		u, err := url.Parse(s)
		if err != nil {
			continue
		}
		if h := u.Hostname(); !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// chaosRig is one crawl's full wiring, kept so tests can inspect the
// resilience layer after the run.
type chaosRig struct {
	stats    Stats
	store    *store.Store
	resolver *dns.Resolver
}

// runChaosCrawl drives one full crawl-to-drain over world with plane's
// faults injected (nil plane = fault-free baseline) and the crawl's
// resilience layer as core ships it: robots.txt honoured, 3 retry attempts
// (with millisecond backoff), hosts quarantined at their 3rd failure,
// truncation degradation, and a two-server resolver with the plane
// faulting the primary.
func runChaosCrawl(t *testing.T, world *corpus.World, plane *faults.Plane, workers int) chaosRig {
	t.Helper()

	transport := world.RoundTripper()
	primary := dns.Server(world.DNSServer())
	secondary := dns.Server(world.DNSServer())
	if plane != nil {
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
		Timeout:   100 * time.Millisecond, // per attempt; stalls cut fast
		Retry: fetch.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		DegradeTruncated: true,
		RespectRobots:    true,
	}, nil, fetch.NewHostTracker(3))
	st := store.New()
	c := New(Config{
		Fetcher:        f,
		Frontier:       frontier.New(frontier.DefaultConfig()),
		Store:          st,
		Classify:       keywordClassifier,
		Workers:        workers,
		MaxTunnelDepth: 2,
		Focus:          SoftFocus,
	})
	c.Seed("ROOT/db", world.SeedURLs()...)

	done := make(chan Stats, 1)
	go func() { done <- c.Run(context.Background()) }()
	select {
	case stats := <-done:
		return chaosRig{stats: stats, store: st, resolver: resolver}
	case <-time.After(90 * time.Second):
		t.Fatal("chaos crawl deadlocked")
		return chaosRig{}
	}
}

func totalFaults(p *faults.Plane) int64 {
	var n int64
	for _, v := range p.Injected() {
		n += v
	}
	return n
}

// TestChaosProfiles crawls the full world once fault-free, then once per
// fault profile per seed, asserting termination, accounting, quarantine of
// every poisoned host touched, degradation of truncated bodies, retry
// activity, and — for the acceptance "default" mix — a harvest within 90%
// of the fault-free run.
func TestChaosProfiles(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	base := runChaosCrawl(t, world, nil, 8)
	if base.stats.Positive == 0 || base.stats.StoredPages == 0 {
		t.Fatalf("fault-free baseline collected nothing: %+v", base.stats)
	}

	mRetries := metrics.NewCounter("fetch_retries_total")
	mRetryOK := metrics.NewCounter("fetch_retry_success_total")

	for _, seed := range chaosSeeds(t) {
		for _, name := range []string{"default", "flaky", "slow", "poison"} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				prof, err := faults.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				prof.Exempt = seedHosts(world)
				plane := faults.New(seed, prof)
				retriesBefore, retryOKBefore := mRetries.Value(), mRetryOK.Value()
				rig := runChaosCrawl(t, world, plane, 8)
				stats := rig.stats

				// The profile must actually have injected faults — unless this
				// seed happened to class none of the crawled hosts as faulty
				// (SeenHosts records only faulty-classed hosts).
				if totalFaults(plane) == 0 {
					if len(plane.SeenHosts()) == 0 {
						t.Skipf("seed %d classed no crawled host as faulty under %s", seed, name)
					}
					t.Fatalf("profile %s touched faulty hosts %v but injected nothing",
						name, plane.SeenHosts())
				}
				// Accounting invariant: every counted visit ends exactly one way.
				if stats.StoredPages+stats.Duplicates+stats.Errors != stats.VisitedURLs {
					t.Errorf("accounting broken: %+v", stats)
				}
				if rig.store.NumDocs() != int(stats.StoredPages) {
					t.Errorf("store/stats mismatch: %d vs %d", rig.store.NumDocs(), stats.StoredPages)
				}
				if stats.StoredPages == 0 {
					t.Fatalf("nothing collected under %s faults", name)
				}

				// Every poisoned host the crawl touched must end quarantined.
				quarantined := map[string]bool{}
				for _, h := range stats.Quarantined {
					quarantined[h] = true
				}
				for _, h := range plane.PoisonedSeen() {
					if !quarantined[h] {
						t.Errorf("poisoned host %s escaped quarantine (quarantined: %v)", h, stats.Quarantined)
					}
				}

				// Truncated bodies must be degraded, not dropped.
				if plane.Injected()[faults.KindTruncate] > 0 && stats.Degraded == 0 {
					t.Errorf("%d truncations injected but no degraded pages stored",
						plane.Injected()[faults.KindTruncate])
				}
				// A faulted primary name server must cause failovers, not errors.
				if plane.Injected()[faults.KindDNSTimeout] > 0 && rig.resolver.Stats().Failovers == 0 {
					t.Error("DNS timeouts injected but resolver never failed over")
				}
				// Transient faults must be retried, and retries must win pages.
				if name == "flaky" {
					if mRetries.Value() == retriesBefore {
						t.Error("flaky profile produced no retries")
					}
					if mRetryOK.Value() == retryOKBefore {
						t.Error("no fetch succeeded on a retry under the flaky profile")
					}
				}
				// Acceptance: the default mix costs at most 10% of the harvest.
				if name == "default" {
					if want := base.stats.Positive * 9 / 10; stats.Positive < want {
						t.Errorf("harvest degraded too far: %d positive pages, want >= %d (90%% of fault-free %d)",
							stats.Positive, want, base.stats.Positive)
					}
				}
			})
		}
	}
}

// TestChaosDeterminism replays one seed twice and requires identical result
// sets. A single worker makes the frontier pop order (and therefore the
// scheduling-dependent IP/size dedup) deterministic; the fault plane itself
// is hash-keyed, so the same seed injects the same faults at the same
// per-URL attempt indices in both runs.
func TestChaosDeterminism(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	prof, err := faults.ByName("default")
	if err != nil {
		t.Fatal(err)
	}
	prof.Exempt = seedHosts(world)

	run := func() (Stats, []string) {
		rig := runChaosCrawl(t, world, faults.New(42, prof), 1)
		var urls []string
		for _, d := range rig.store.All() {
			urls = append(urls, d.URL)
		}
		sort.Strings(urls)
		return rig.stats, urls
	}

	stats1, urls1 := run()
	stats2, urls2 := run()

	if len(urls1) != len(urls2) {
		t.Fatalf("result set size diverged: %d vs %d stored URLs", len(urls1), len(urls2))
	}
	for i := range urls1 {
		if urls1[i] != urls2[i] {
			t.Fatalf("result set diverged at %d: %q vs %q", i, urls1[i], urls2[i])
		}
	}
	if fmt.Sprintf("%+v", stats1) != fmt.Sprintf("%+v", stats2) {
		t.Errorf("stats diverged:\n  run1: %+v\n  run2: %+v", stats1, stats2)
	}
}

// TestChaosFlapRecovery runs the flap profile: hosts that refuse their
// first FlapDownFirst (3) requests must come back rather than end
// quarantined, and their pages must be harvested. At the shipped settings
// the first request to a host is its robots.txt, whose refusal reads as
// allow-everything and books no host failure, so a page fetch meets at
// most two refusals and its third attempt succeeds — one short of the
// quarantine threshold.
func TestChaosFlapRecovery(t *testing.T) {
	world := corpus.Generate(corpus.TinyConfig())
	prof, err := faults.ByName("flap")
	if err != nil {
		t.Fatal(err)
	}
	prof.Exempt = seedHosts(world)
	plane := faults.New(1, prof)

	rig := runChaosCrawl(t, world, plane, 8)
	stats := rig.stats

	var flapSeen []string
	for h, c := range plane.SeenHosts() {
		if c == faults.ClassFlapping {
			flapSeen = append(flapSeen, h)
		}
	}
	if len(flapSeen) == 0 {
		t.Fatal("flap profile crawl touched no flapping hosts")
	}
	// Flapping hosts recover after FlapDownFirst refusals; none may end
	// quarantined.
	for _, q := range stats.Quarantined {
		for _, h := range flapSeen {
			if q == h {
				t.Errorf("flapping host %s was quarantined instead of recovered", h)
			}
		}
	}
	if stats.StoredPages == 0 {
		t.Fatal("flap crawl collected nothing")
	}
	flapping := map[string]bool{}
	for _, h := range flapSeen {
		flapping[h] = true
	}
	harvested := 0
	for _, d := range rig.store.All() {
		if u, err := url.Parse(d.URL); err == nil && flapping[u.Hostname()] {
			harvested++
		}
	}
	if harvested == 0 {
		t.Errorf("no page harvested from the %d flapping hosts the crawl touched", len(flapSeen))
	}
}
