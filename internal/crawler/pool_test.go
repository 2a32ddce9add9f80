package crawler

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/store"
)

// acceptAll removes classifier-induced path dependence: every page is
// on-topic, so a crawl to drain must store exactly the reachable set no
// matter how work interleaves across workers.
func acceptAll(d classify.Doc) classify.Result {
	return classify.Result{Topic: "ROOT/db", Confidence: 1, Accepted: true}
}

// crawlKeySet runs a crawl to drain and returns the stored pages as sorted
// dedup-class keys. The fetcher's third fingerprint treats equal body sizes
// on one host as duplicates, so WHICH member of such a class is stored
// depends on fetch order; the class itself does not. Keying by (host, size)
// makes the comparison order-independent without weakening it: every class
// must be stored exactly as often in both runs.
func crawlKeySet(t *testing.T, mut func(*Config)) ([]string, *store.Store, Stats) {
	t.Helper()
	c, st, world := testSetup(t, func(cfg *Config) {
		cfg.Classify = acceptAll
		mut(cfg)
	})
	c.Seed("ROOT/db", world.SeedURLs()...)
	stats := c.Run(context.Background())
	var keys []string
	for _, d := range st.All() {
		if p, ok := world.Pages[d.URL]; ok {
			keys = append(keys, fmt.Sprintf("%s#%d", p.Host, len(p.Body)))
		} else {
			keys = append(keys, d.URL)
		}
	}
	sort.Strings(keys)
	return keys, st, stats
}

// TestWorkerPoolMatchesSequential is the concurrency equivalence check of
// the batched write path: a 12-worker crawl with a tiny batch size (maximal
// flush interleaving) must store exactly the same pages as a single-worker
// crawl of the same world, publish everything through bulk loads, and leave
// the frontier fully drained. Run under -race this also exercises the
// sharded index, the per-relation locks, and the PopWait lease protocol.
func TestWorkerPoolMatchesSequential(t *testing.T) {
	parallel, pst, pstats := crawlKeySet(t, func(cfg *Config) {
		cfg.Workers = 12
		cfg.BatchSize = 4
	})
	sequential, _, _ := crawlKeySet(t, func(cfg *Config) {
		cfg.Workers = 1
	})

	if len(parallel) == 0 {
		t.Fatal("parallel crawl stored nothing")
	}
	if len(parallel) != len(sequential) {
		t.Fatalf("parallel crawl stored %d pages, sequential stored %d", len(parallel), len(sequential))
	}
	for i := range parallel {
		if parallel[i] != sequential[i] {
			t.Fatalf("stored page sets diverge at %d: %q vs %q", i, parallel[i], sequential[i])
		}
	}
	if pstats.StoredPages != int64(len(parallel)) {
		t.Errorf("stats report %d stored pages, store holds %d", pstats.StoredPages, len(parallel))
	}
	inserts, bulkLoads := pst.Counters()
	if inserts != 0 {
		t.Errorf("batched crawl performed %d per-row inserts, want 0", inserts)
	}
	if bulkLoads == 0 {
		t.Error("batched crawl performed no bulk loads")
	}
}
