package search

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// The tiered-storage equivalence suite: a store whose documents live in
// compressed on-disk segments must answer every query BIT-identically to
// the all-in-memory store over the same writes — same URLs in the same
// order with the same float64 score bits, whether the corpus is all hot,
// all frozen, or mid-compaction. Tiering is a layout decision, never a
// semantics decision.

func searchTierOpts() store.TierOptions {
	return store.TierOptions{
		MemtableBudget:    1 << 40, // tests freeze explicitly
		DisableCompaction: true,    // tests compact explicitly
	}
}

func openSearchTiered(t *testing.T, p int) *store.Store {
	t.Helper()
	s, err := store.OpenTiered(t.TempDir(), p, searchTierOpts())
	if err != nil {
		t.Fatalf("OpenTiered: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// tierWords are the words fillTierWave adds to a document's text, drawn
// like equivVocab's stems, one for one.
var tierWords = []string{
	"database", "recovery", "transaction", "aries", "log", "lock", "btree",
	"index", "join", "query", "optimizer", "concurrency", "commit", "abort",
	"replication", "shard", "crawl", "classifier", "svm", "portal",
}

// fillTierWave inserts one deterministic wave of documents and links into
// every store given (deep-copying per store, since stores take ownership
// of the Terms map). A document's text spells out its terms, and Terms is
// derived from title and text, as every producer derives it, so a WAL
// replay reproduces it. Waves use distinct URL spaces so they compose.
func fillTierWave(seed int64, wave, nDocs int, stores ...*store.Store) {
	rng := rand.New(rand.NewSource(seed*1000 + int64(wave)))
	topics := []string{"ROOT/db", "ROOT/db/recovery", "ROOT/os", "ROOT/OTHERS"}
	texts := []string{
		"recovery transaction database log notes",
		"database index structures survey",
		"transaction concurrency and commit ordering",
		"portal crawler classifier pipeline",
	}
	urls := make([]string, nDocs)
	for i := 0; i < nDocs; i++ {
		urls[i] = fmt.Sprintf("http://h%d.w%d.seed%d.example/doc%d", rng.Intn(40), wave, seed, i)
		d := store.Document{
			URL:        urls[i],
			Title:      fmt.Sprintf("wave %d doc %d", wave, i),
			Text:       texts[rng.Intn(len(texts))],
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
		}
		nTerms := 3 + rng.Intn(6)
		for k := 0; k < nTerms; k++ {
			word := tierWords[rng.Intn(len(tierWords))]
			for n := 1 + rng.Intn(4); n > 0; n-- {
				d.Text += " " + word
			}
		}
		d.Terms = textproc.DocTerms(d.Title, d.Text)
		for _, st := range stores {
			cp := d
			cp.Terms = make(map[string]int, len(d.Terms))
			for k, v := range d.Terms {
				cp.Terms[k] = v
			}
			st.Insert(cp)
		}
	}
	for i := 0; i < nDocs; i++ {
		from, to := urls[rng.Intn(nDocs)], urls[rng.Intn(nDocs)]
		if from == to {
			continue
		}
		l := store.Link{From: from, To: to, Anchor: "link"}
		for _, st := range stores {
			st.AddLink(l)
		}
	}
}

func freezeAllShards(t *testing.T, s *store.Store) {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		if err := s.FreezeShard(i); err != nil {
			t.Fatalf("freeze shard %d: %v", i, err)
		}
	}
}

func compactAllShards(t *testing.T, s *store.Store) {
	t.Helper()
	for i := 0; i < s.NumShards(); i++ {
		for {
			did, err := s.CompactShard(i)
			if err != nil {
				t.Fatalf("compact shard %d: %v", i, err)
			}
			if !did {
				break
			}
		}
	}
}

// compareTier runs every query shape on both engines and requires
// bit-identical hits.
func compareTier(t *testing.T, label string, base, e *Engine) {
	t.Helper()
	for qi, q := range equivQueries() {
		want := base.Search(q)
		got := e.Search(q)
		if len(want) == 0 {
			t.Fatalf("%s query=%d returned nothing — weak test", label, qi)
		}
		sameHits(t, fmt.Sprintf("%s query=%d", label, qi), want, got)
	}
}

// TestTieredSearchBitIdentical is the tier-equivalence matrix: seeds ×
// shard counts × query shapes, with the corpus progressively pushed from
// the memtable into segments and then through compaction. Every state is
// compared bit-for-bit against an all-in-memory store fed the same writes.
func TestTieredSearchBitIdentical(t *testing.T) {
	for _, seed := range []int64{3, 21} {
		for _, p := range []int{1, 8} {
			mem := store.NewSharded(p)
			tiered := openSearchTiered(t, p)
			base, e := New(mem), New(tiered)

			fillTierWave(seed, 0, 240, mem, tiered)
			compareTier(t, fmt.Sprintf("seed=%d P=%d all-hot", seed, p), base, e)

			// Freeze without a subsequent write: the engines keep serving
			// the pre-freeze snapshot while postings come from segments.
			freezeAllShards(t, tiered)
			compareTier(t, fmt.Sprintf("seed=%d P=%d all-frozen stale-snap", seed, p), base, e)

			// A write bumps the epoch, so the next query rebuilds the
			// snapshot by reading cold term vectors out of the segments.
			fillTierWave(seed, 1, 40, mem, tiered)
			compareTier(t, fmt.Sprintf("seed=%d P=%d mixed", seed, p), base, e)

			// Pile up enough segments per shard to trip the size-tiered
			// merge, compact, and re-verify both before and after the
			// epoch-bumping write that forces a rebuild over the merged
			// segment.
			for wave := 2; wave <= 4; wave++ {
				freezeAllShards(t, tiered)
				fillTierWave(seed, wave, 40, mem, tiered)
			}
			freezeAllShards(t, tiered)
			compactAllShards(t, tiered)
			compareTier(t, fmt.Sprintf("seed=%d P=%d compacted stale-snap", seed, p), base, e)
			fillTierWave(seed, 5, 20, mem, tiered)
			compareTier(t, fmt.Sprintf("seed=%d P=%d compacted", seed, p), base, e)
		}
	}
}

// TestTieredSearchAfterReopen: a crash-reopened tiered store (segments +
// WAL tail, no clean Close) must search bit-identically to the in-memory
// baseline.
func TestTieredSearchAfterReopen(t *testing.T) {
	mem := store.NewSharded(4)
	dir := t.TempDir()
	s, err := store.OpenTiered(dir, 4, searchTierOpts())
	if err != nil {
		t.Fatalf("OpenTiered: %v", err)
	}
	fillTierWave(9, 0, 200, mem, s)
	freezeAllShards(t, s)
	fillTierWave(9, 1, 50, mem, s) // this wave lives only in the WAL
	// No Close: simulate a crash, recover from segments + WAL.
	re, err := store.OpenTiered(dir, 4, searchTierOpts())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	defer s.Close()
	compareTier(t, "reopen", New(mem), New(re))
}

// TestTieredSearchConcurrentChurn hammers a tiered engine with concurrent
// writers, readers, and a freezer/compactor goroutine (meaningful under
// -race), then quiesces and checks the final results still match a P=1
// in-memory store fed the same final state.
func TestTieredSearchConcurrentChurn(t *testing.T) {
	s := openSearchTiered(t, 8)
	for i := 0; i < 200; i++ {
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://base%d.example/", i),
			Topic:      "ROOT/db",
			Text:       "database transaction recovery",
			Confidence: float64(i%97) / 97,
			Terms:      map[string]int{"databas": 1 + i%3, "recoveri": 1 + i%2},
		})
	}
	e := New(s)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
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
						Text:       "transaction log replay",
						Confidence: float64(i%13) / 13,
						Terms:      map[string]int{"transact": 1 + i%4, "log": 1},
					})
				}
			}
		}(w)
	}
	// Tier churn: keep pushing the memtable into segments and merging them
	// while queries run.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			si := i % s.NumShards()
			if err := s.FreezeShard(si); err != nil {
				t.Errorf("freeze shard %d: %v", si, err)
				return
			}
			if _, err := s.CompactShard(si); err != nil {
				t.Errorf("compact shard %d: %v", si, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				e.Search(Query{Text: "database transaction recovery"})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()

	// Quiesce, mirror the surviving state into a fresh P=1 in-memory
	// store, compare bit-for-bit.
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
		sameHits(t, fmt.Sprintf("post-churn tiered query=%d", qi), want, got)
	}
}
