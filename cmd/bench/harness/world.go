package harness

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/experiments"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// newWorld generates the bench world for a workload seed. The seed becomes
// corpus.Config.Seed; every query and arrival stream below is derived from
// it too, so the program only ever receives generated inputs.
func newWorld(sc Scale, seed int64) *corpus.World {
	cfg := sc.World
	cfg.Seed = seed
	return corpus.Generate(cfg)
}

// newEngine wires a portal engine to the world exactly as
// experiments.NewPortalEngine does for the paper's tables (topic
// "databases", the world's seeds and OTHERS pages, five DNS servers), with
// the bench budgets. dataDir "" keeps the crawl database in memory.
func newEngine(w *corpus.World, sc Scale, workers int, dataDir string) (*core.Engine, error) {
	return experiments.NewPortalEngine(w, sc.LearnBudget, sc.HarvestBudget, func(c *core.Config) {
		c.Workers = workers
		c.StoreShards = sc.StoreShards
		if dataDir != "" {
			c.DataDir = dataDir
			c.MemtableBudget = sc.MemtableBudget
			c.WALSync = walSync
			c.CompactFanout = compactFanout
		}
	})
}

// servingCorpus is the input of the three serve-* workloads: what a staging
// crawl of the bench world stored, in URL order, with a seeded reserve held
// back for the churn writer and a pool of queries that all have hits.
type servingCorpus struct {
	// docs is the corpus proper, sorted by URL; reserve is held back.
	docs    []store.Document
	reserve []store.Document
	// links maps a document's URL to its out-link rows.
	links map[string][]store.Link
	// stored and visited are the staging crawl's counters; with one worker
	// they repeat exactly for a given seed.
	stored, visited int64
	textBytes       int64
	// pool holds distinct query texts, each drawn from one corpus
	// document's own words. warm is a disjoint pool for warm-up requests.
	pool, warm []string
	// classifier is the staging crawl's trained ensemble.
	classifier *classify.Classifier
}

// buildServingCorpus runs the staging crawl (one worker, in-memory store —
// exactly repeatable) and derives the corpus, the reserve and the query
// pools from what it stored.
func buildServingCorpus(ctx context.Context, w *corpus.World, sc Scale, seed int64) (*servingCorpus, error) {
	eng, err := newEngine(w, sc, 1, "")
	if err != nil {
		return nil, fmt.Errorf("staging engine: %w", err)
	}
	defer eng.Close()
	learn, harvest, err := eng.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("staging crawl: %w", err)
	}
	all := eng.Store().All()
	sort.Slice(all, func(i, j int) bool { return all[i].URL < all[j].URL })
	c := &servingCorpus{
		links:      make(map[string][]store.Link),
		stored:     learn.StoredPages + harvest.StoredPages,
		visited:    learn.VisitedURLs + harvest.VisitedURLs,
		classifier: eng.Classifier(),
	}
	if len(all) < 4*sc.Reserve() {
		return nil, fmt.Errorf("staging crawl stored %d documents, too few for a reserve of %d", len(all), sc.Reserve())
	}
	// Link rows are keyed by the fetched (final) URL of their source page;
	// hand each group to the first document, in URL order, that was fetched
	// from there, so every row is delivered exactly once.
	byFinal := make(map[string][]store.Link)
	for _, l := range eng.Store().Links() {
		byFinal[l.From] = append(byFinal[l.From], l)
	}
	for _, d := range all {
		if ls, ok := byFinal[d.FinalURL]; ok {
			sort.Slice(ls, func(i, j int) bool { return ls[i].To < ls[j].To })
			c.links[d.URL] = ls
			delete(byFinal, d.FinalURL)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	held := make(map[int]bool, sc.Reserve())
	for _, i := range rng.Perm(len(all))[:sc.Reserve()] {
		held[i] = true
	}
	for i := range all {
		all[i].ID = 0 // the store that receives the document assigns its own
		if held[i] {
			c.reserve = append(c.reserve, all[i])
			continue
		}
		if sc.CorpusDocs > 0 && len(c.docs) == sc.CorpusDocs {
			continue
		}
		c.docs = append(c.docs, all[i])
		c.textBytes += int64(len(all[i].Text))
	}
	if len(c.docs) < sc.CorpusDocs {
		return nil, fmt.Errorf("staging crawl left %d documents for a corpus of %d", len(c.docs), sc.CorpusDocs)
	}
	c.pool, c.warm = queryPools(c.docs, rng, sc)
	if len(c.pool) < zipfHead {
		return nil, fmt.Errorf("query pool has only %d distinct queries", len(c.pool))
	}
	return c, nil
}

// queryPools draws distinct 1–3 word queries, each from one corpus
// document's own non-stopword words, so every query has at least that
// document as a hit. Documents are visited in seeded order, several rounds
// if the corpus is small; the first WarmQueries distinct queries form the
// warm-up pool and are never sent in a timed window.
func queryPools(docs []store.Document, rng *rand.Rand, sc Scale) (pool, warm []string) {
	pipe := textproc.NewPipeline()
	stop := textproc.DefaultStopwords()
	seen := make(map[string]bool)
	want := sc.WarmQueries + sc.PoolQueries
	var out []string
	for round := 0; round < 8 && len(out) < want; round++ {
		for _, di := range rng.Perm(len(docs)) {
			var words []string
			for _, wd := range textproc.Words(docs[di].Text) {
				wd = strings.ToLower(wd)
				if len(wd) >= 3 && !stop.Contains(wd) && len(pipe.Stems(wd)) == 1 {
					words = append(words, wd)
				}
			}
			if len(words) == 0 {
				continue
			}
			n := 1 + rng.Intn(3)
			picked := make([]string, 0, n)
			for j := 0; j < n; j++ {
				picked = append(picked, words[rng.Intn(len(words))])
			}
			q := strings.Join(picked, " ")
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	if len(out) <= sc.WarmQueries {
		return nil, nil
	}
	return out[sc.WarmQueries:], out[:sc.WarmQueries]
}

// rawQuery renders a pool query as the /search query string, k=10.
func rawQuery(text string) string {
	return "q=" + url.QueryEscape(text) + "&k=10"
}

// markerDoc returns d with a unique marker word appended to its text and
// term vector, and the word itself. The churn writer puts one such document
// in every flush and polls /search for the word to time freshness.
func markerDoc(d store.Document, n int, pipe *textproc.Pipeline) (store.Document, string) {
	word := "zqmark" + string(rune('a'+n%26)) + string(rune('a'+(n/26)%26))
	terms := make(map[string]int, len(d.Terms)+1)
	for t, tf := range d.Terms {
		terms[t] = tf
	}
	for _, s := range pipe.Stems(word) {
		terms[s]++
	}
	d.Terms = terms
	d.Text += " " + word
	return d, word
}
