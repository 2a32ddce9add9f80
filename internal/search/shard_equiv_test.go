package search

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/bingo-search/bingo/internal/cluster"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/vsm"
)

// The sharding equivalence suite: for every seed and shard count, search
// results, HITS-weighted rankings, and cluster assignments over a
// partitioned store must be BIT-identical to the single-shard engine —
// same URLs in the same order with the same float64 score bits. Sharding
// is a layout decision, never a semantics decision.

var equivVocab = []string{
	"databas", "recoveri", "transact", "aries", "log", "lock", "btree",
	"index", "join", "queri", "optim", "concurr", "commit", "abort",
	"replic", "shard", "crawl", "classifi", "svm", "portal",
}

// buildEquivCorpus inserts the same deterministic corpus (docs + links)
// into one store per shard count and returns them keyed by shard count.
func buildEquivCorpus(seed int64, nDocs int, shardCounts []int) map[int]*store.Store {
	stores := make(map[int]*store.Store, len(shardCounts))
	for _, p := range shardCounts {
		stores[p] = store.NewSharded(p)
	}
	rng := rand.New(rand.NewSource(seed))
	topics := []string{"ROOT/db", "ROOT/db/recovery", "ROOT/os", "ROOT/OTHERS"}
	urls := make([]string, nDocs)
	for i := 0; i < nDocs; i++ {
		urls[i] = fmt.Sprintf("http://h%d.seed%d.example/doc%d", rng.Intn(40), seed, i)
		d := store.Document{
			URL:        urls[i],
			Title:      fmt.Sprintf("doc %d", i),
			Text:       "recovery transaction database",
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Terms:      map[string]int{},
		}
		nTerms := 3 + rng.Intn(6)
		for t := 0; t < nTerms; t++ {
			d.Terms[equivVocab[rng.Intn(len(equivVocab))]] += 1 + rng.Intn(4)
		}
		for _, st := range stores {
			cp := d
			cp.Terms = make(map[string]int, len(d.Terms))
			for k, v := range d.Terms {
				cp.Terms[k] = v
			}
			st.Insert(cp)
		}
	}
	nLinks := nDocs * 2
	for i := 0; i < nLinks; i++ {
		from, to := urls[rng.Intn(nDocs)], urls[rng.Intn(nDocs)]
		if from == to {
			continue
		}
		l := store.Link{From: from, To: to, Anchor: "link"}
		for _, st := range stores {
			st.AddLink(l)
		}
	}
	return stores
}

func equivQueries() []Query {
	return []Query{
		{Text: "recovery transaction"},
		{Text: "recovery transaction", Exact: true},
		{Text: "database", Topic: "ROOT/db"},
		{Text: "database index btree", Limit: 25},
		{Text: "recovery", Weights: Weights{Cosine: 0.5, Confidence: 0.5}},
		{Text: "transaction log", Weights: Weights{Cosine: 0.4, Confidence: 0.3, Authority: 0.3}},
		{Text: `"recovery transaction" database`},
	}
}

// sameHits asserts two hit lists are bit-identical: same URLs in the same
// order and exactly equal float64 components. DocIDs are excluded — they
// encode the shard layout by design.
func sameHits(t *testing.T, label string, want, got []Hit) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits, baseline has %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Doc.URL != g.Doc.URL {
			t.Fatalf("%s: hit %d is %q, baseline %q", label, i, g.Doc.URL, w.Doc.URL)
		}
		for _, c := range [][3]interface{}{
			{"score", w.Score, g.Score},
			{"cosine", w.Cosine, g.Cosine},
			{"confidence", w.Confidence, g.Confidence},
			{"authority", w.Authority, g.Authority},
		} {
			wb := math.Float64bits(c[1].(float64))
			gb := math.Float64bits(c[2].(float64))
			if wb != gb {
				t.Fatalf("%s: hit %d (%s) %s = %x, baseline %x (Δ=%g)",
					label, i, w.Doc.URL, c[0], gb, wb, c[2].(float64)-c[1].(float64))
			}
		}
	}
}

// TestShardedSearchBitIdentical is the core equivalence matrix: seeds ×
// shard counts × query shapes, every result compared bit-for-bit against
// the P=1 engine.
func TestShardedSearchBitIdentical(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for _, seed := range []int64{1, 7, 42} {
		stores := buildEquivCorpus(seed, 400, shardCounts)
		base := New(stores[1])
		for _, p := range shardCounts[1:] {
			e := New(stores[p])
			for qi, q := range equivQueries() {
				want := base.Search(q)
				got := e.Search(q)
				if len(want) == 0 {
					t.Fatalf("seed %d query %d returned nothing — weak test", seed, qi)
				}
				sameHits(t, fmt.Sprintf("seed=%d P=%d query=%d", seed, p, qi), want, got)
			}
		}
	}
}

// TestShardedSearchAfterChurn mutates every store identically (deletes +
// re-inserts + new links), then re-checks bit-identity. This exercises the
// dirty-shard incremental rebuild: only some shards change, so the P>1
// engines rebuild partial views and must still agree with P=1 exactly.
func TestShardedSearchAfterChurn(t *testing.T) {
	shardCounts := []int{1, 4, 8}
	stores := buildEquivCorpus(11, 300, shardCounts)
	engines := map[int]*Engine{}
	for _, p := range shardCounts {
		engines[p] = New(stores[p])
		engines[p].Search(Query{Text: "database"}) // build the initial views
	}
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 5; round++ {
		// Localized churn: a handful of inserts, same mutation everywhere.
		for i := 0; i < 10; i++ {
			d := store.Document{
				URL:        fmt.Sprintf("http://churn%d.example/r%d", rng.Intn(20), round),
				Topic:      "ROOT/db",
				Confidence: float64(rng.Intn(1000)) / 1000,
				Terms:      map[string]int{"recoveri": 1 + rng.Intn(3), "shard": 2},
			}
			for _, p := range shardCounts {
				cp := d
				cp.Terms = map[string]int{}
				for k, v := range d.Terms {
					cp.Terms[k] = v
				}
				stores[p].Insert(cp)
			}
		}
		del := fmt.Sprintf("http://churn%d.example/r%d", rng.Intn(20), round)
		for _, p := range shardCounts {
			stores[p].Delete(del)
		}
		for qi, q := range equivQueries() {
			want := engines[1].Search(q)
			for _, p := range shardCounts[1:] {
				got := engines[p].Search(q)
				sameHits(t, fmt.Sprintf("churn round=%d P=%d query=%d", round, p, qi), want, got)
			}
		}
	}
}

// TestShardedSearchConcurrentChurn hammers a sharded engine with
// concurrent writers and readers (meaningful under -race), then quiesces
// and checks the final results still match a P=1 store fed the same final
// state.
func TestShardedSearchConcurrentChurn(t *testing.T) {
	s := store.NewSharded(8)
	for i := 0; i < 200; i++ {
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://base%d.example/", i),
			Topic:      "ROOT/db",
			Confidence: float64(i%97) / 97,
			Terms:      map[string]int{"databas": 1 + i%3, "recoveri": 1 + i%2},
		})
	}
	e := New(s)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Bounded, not until-readers-finish: every insert (including a
			// same-URL replace) consumes a fresh seq, and snapshots are
			// dense by seq — unthrottled writers on a loaded machine make
			// each reader rebuild quadratically bigger until the package
			// times out. 20k writes per writer keeps full reader/writer
			// overlap with bounded snapshot growth.
			for i := 0; i < 20000; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("http://w%d.example/%d", w, i%50)
				if i%3 == 0 {
					s.Delete(url)
				} else {
					s.Insert(store.Document{
						URL: url, Topic: "ROOT/db",
						Confidence: float64(i%13) / 13,
						Terms:      map[string]int{"transact": 1 + i%4, "log": 1},
					})
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				e.Search(Query{Text: "database transaction recovery"})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	// Quiesce, mirror the surviving state into a fresh P=1 store, compare.
	single := store.NewSharded(1)
	s.VisitDocs(func(d store.Document) bool {
		cp := d
		cp.ID = 0
		cp.Terms = make(map[string]int, len(d.Terms))
		for k, v := range d.Terms {
			cp.Terms[k] = v
		}
		single.Insert(cp)
		return true
	})
	base := New(single)
	for qi, q := range equivQueries()[:4] {
		want := base.Search(q)
		got := e.Search(q)
		sameHits(t, fmt.Sprintf("post-churn P=8 query=%d", qi), want, got)
	}
}

// TestShardedClusterAssignmentsIdentical checks the cluster-analysis read
// path: ByTopic document order (confidence/URL, layout-invariant), tf·idf
// vectors, and seeded k-means assignments agree across shard counts.
func TestShardedClusterAssignmentsIdentical(t *testing.T) {
	shardCounts := []int{1, 2, 8}
	stores := buildEquivCorpus(5, 250, shardCounts)
	clusterOf := func(st *store.Store) ([]string, []int, int) {
		docs := st.ByTopic("ROOT/db")
		stats := vsm.NewCorpusStats()
		for _, d := range docs {
			stats.AddDoc(d.Terms)
		}
		idf := stats.Snapshot()
		vecs := make([]vsm.Vector, len(docs))
		urls := make([]string, len(docs))
		for i, d := range docs {
			vecs[i] = idf.Weight(d.Terms)
			urls[i] = d.URL
		}
		res, k := cluster.ChooseK(vecs, 2, 4, cluster.Options{Seed: 1})
		return urls, res.Assign, k
	}
	wantURLs, wantAssign, wantK := clusterOf(stores[1])
	if len(wantURLs) == 0 {
		t.Fatal("baseline topic empty — weak test")
	}
	for _, p := range shardCounts[1:] {
		urls, assign, k := clusterOf(stores[p])
		if k != wantK {
			t.Fatalf("P=%d chose k=%d, baseline %d", p, k, wantK)
		}
		for i := range wantURLs {
			if urls[i] != wantURLs[i] {
				t.Fatalf("P=%d doc order diverges at %d: %q vs %q", p, i, urls[i], wantURLs[i])
			}
			if assign[i] != wantAssign[i] {
				t.Fatalf("P=%d assignment diverges at %d (%s): %d vs %d",
					p, i, urls[i], assign[i], wantAssign[i])
			}
		}
	}
}

// TestShardedIncrementalRebuildCounters pins the tentpole's economy: after
// a localized write to a warm P=8 engine, a re-query rebuilds exactly one
// shard snapshot and reuses the other seven — and inside the rebuilt shard
// materializes only the written row, carrying the rest.
func TestShardedIncrementalRebuildCounters(t *testing.T) {
	s := store.NewSharded(8)
	for i := 0; i < 320; i++ {
		s.Insert(store.Document{
			URL:   fmt.Sprintf("http://inc%d.example/", i),
			Topic: "ROOT/db",
			Terms: map[string]int{"databas": 1 + i%2},
		})
	}
	e := New(s)
	e.Search(Query{Text: "database"}) // initial full build

	rebuilt0, reused0, docs0 := mShardRebuilds.Value(), mShardReused.Value(), mShardDocsRebuilt.Value()
	s.Insert(store.Document{
		URL:   "http://localized-write.example/",
		Topic: "ROOT/db",
		Terms: map[string]int{"databas": 2},
	})
	e.Search(Query{Text: "database"})
	rebuilt, reused := mShardRebuilds.Value()-rebuilt0, mShardReused.Value()-reused0
	if rebuilt != 1 {
		t.Errorf("localized write rebuilt %d shard snapshots, want 1", rebuilt)
	}
	if reused != 7 {
		t.Errorf("localized write reused %d shard snapshots, want 7", reused)
	}
	if docs := mShardDocsRebuilt.Value() - docs0; docs != 1 {
		t.Errorf("localized write rebuilt %d document rows, want 1", docs)
	}
}
