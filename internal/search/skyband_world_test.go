package search_test

import (
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/urlnorm"
	"github.com/bingo-search/bingo/internal/vsm"
)

// defaultWorld is a 3,000-page slice of the default world split across two
// partitions by store.RouteURL, with seeded uniform confidences (no
// classifier runs here), the links among its pages, and 200 two-word
// queries drawn from the pages' own words.
type defaultWorld struct {
	stores  []*store.Store
	df      map[string]int
	total   int
	auth    []string  // URLs with an authority score, sorted
	scores  []float64 // their scores
	idf     *vsm.IDFTable
	queries []string
	maxConf float64 // largest confidence in the corpus
}

const worldVersion = "g1"

func buildDefaultWorld() *defaultWorld {
	const nDocs, nQueries = 3000, 200
	w := corpus.Generate(corpus.DefaultConfig())
	urls := make([]string, 0, len(w.Pages))
	for u, p := range w.Pages {
		if htmldoc.CanHandle(p.ContentType) {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	rng := rand.New(rand.NewSource(2003))
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	urls = urls[:nDocs]
	inCorpus := make(map[string]bool, nDocs)
	for _, u := range urls {
		inCorpus[u] = true
	}

	dw := &defaultWorld{stores: []*store.Store{store.NewSharded(2), store.NewSharded(2)}, df: map[string]int{}}
	pipe := textproc.NewPipeline()
	var texts []string
	for _, u := range urls {
		p := w.Pages[u]
		base, _ := url.Parse(u)
		doc, err := htmldoc.Convert(p.ContentType, p.Body, func(_, href string) (string, bool) {
			ref, err := base.Parse(href)
			if err != nil {
				return "", false
			}
			n, err := urlnorm.Normalize(ref.String())
			return n, err == nil
		})
		if err != nil {
			continue
		}
		topic := "ROOT/OTHERS"
		if p.Topic >= 0 {
			topic = "ROOT/" + w.Topics()[p.Topic]
		}
		st := dw.stores[store.RouteURL(u, 2)]
		conf := rng.Float64()
		dw.maxConf = max(dw.maxConf, conf)
		st.Insert(store.Document{URL: u, Title: doc.Title, Topic: topic, Confidence: conf,
			Terms: pipe.StemCounts(doc.Title + " " + doc.Text)})
		for _, l := range doc.Links {
			if inCorpus[l.URL] && l.URL != u {
				st.AddLink(store.Link{From: u, To: l.URL, Anchor: l.Anchor})
			}
		}
		texts = append(texts, doc.Text)
	}

	// What the coordinator's Sync and SyncAuth compute: the merged integer
	// df, and HITS over the union of the links.
	var links []store.Link
	for _, st := range dw.stores {
		ps := search.NewPartition(st).Stats()
		dw.total += ps.NumDocs
		for j, term := range ps.Terms {
			dw.df[term] += ps.DF[j]
		}
		st.VisitLinks(func(l store.Link) bool { links = append(links, l); return true })
	}
	auth := search.AuthorityFromLinks(links)
	for u := range auth {
		dw.auth = append(dw.auth, u)
	}
	sort.Strings(dw.auth)
	for _, u := range dw.auth {
		dw.scores = append(dw.scores, auth[u])
	}
	dw.idf = vsm.TableFromDocFreq(dw.df, dw.total)

	for len(dw.queries) < nQueries {
		words := strings.Fields(texts[rng.Intn(len(texts))])
		if len(words) < 8 {
			continue
		}
		i := rng.Intn(len(words) - 1)
		dw.queries = append(dw.queries, words[i]+" "+words[i+1])
	}
	return dw
}

// sync pushes the merged df and the authority scores to parts, one per
// store, as the coordinator's Sync and SyncAuth do.
func (dw *defaultWorld) sync(tb testing.TB, parts []*search.Partition) {
	tb.Helper()
	for _, p := range parts {
		ps := p.Stats()
		dfs := make([]int, len(ps.Terms))
		for j, term := range ps.Terms {
			dfs[j] = dw.df[term]
		}
		if err := p.SetGlobal(worldVersion, ps.Pin, dw.total, ps.Terms, dfs); err != nil {
			tb.Fatal(err)
		}
		if err := p.SetAuth(worldVersion, dw.auth, dw.scores); err != nil {
			tb.Fatal(err)
		}
	}
}

// plan plans q as the coordinator does, bounds included.
func (dw *defaultWorld) plan(planner *search.Planner, q string, k int, w search.Weights) (*search.Plan, bool) {
	plan, ok := planner.Plan(search.Query{Text: q, Limit: k, Weights: w}, dw.idf)
	if ok {
		plan.Bounds = search.Bounds{Cos: search.UnitBound, Conf: dw.maxConf}
		if w.Authority != 0 {
			plan.Bounds.Auth = slices.Max(dw.scores)
		}
	}
	return plan, ok
}

// weightClasses are the four ranking mixes the measurements compare.
var weightClasses = []struct {
	name string
	w    search.Weights
}{
	{"cos", search.Weights{Cosine: 1}},
	{"cos+conf", search.Weights{Cosine: 0.5, Confidence: 0.5}},
	{"cos+auth", search.Weights{Cosine: 0.5, Authority: 0.5}},
	{"cos+conf+auth", search.Weights{Cosine: 0.4, Confidence: 0.3, Authority: 0.3}},
}

// TestSkybandRowsOnDefaultWorld measures how many rows a partition ships
// per query under the four weight classes over the default world (see
// defaultWorld), with K = 10. At the 99th percentile cosine-only skybands
// must stay within 2·K and the other classes within 10·K.
func TestSkybandRowsOnDefaultWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 3,000-page corpus")
	}
	const k = 10
	dw := buildDefaultWorld()
	parted := make([]*search.Partition, len(dw.stores))
	for i, st := range dw.stores {
		parted[i] = search.NewPartition(st)
	}
	dw.sync(t, parted)
	planner := search.NewPlanner()
	nQueries := len(dw.queries)

	for _, c := range weightClasses {
		var rows []int
		survivors := 0
		for _, q := range dw.queries {
			plan, ok := dw.plan(planner, q, k, c.w)
			if !ok {
				continue
			}
			for _, p := range parted {
				sb, err := p.Search(worldVersion, plan)
				if err != nil {
					t.Fatal(err)
				}
				if sb.Survivors > 0 {
					rows = append(rows, len(sb.URL))
					survivors += sb.Survivors
				}
			}
		}
		if len(rows) < nQueries {
			t.Fatalf("%s: only %d shard answers had survivors — weak test", c.name, len(rows))
		}
		sort.Ints(rows)
		p50, p99 := rows[len(rows)/2], rows[len(rows)*99/100]
		t.Logf("%-14s skyband rows per shard: median %d, p99 %d, max %d (K=%d, mean survivors %.0f, %d shard answers)",
			c.name, p50, p99, rows[len(rows)-1], k, float64(survivors)/float64(len(rows)), len(rows))
		if c.name == "cos" && p99 > 2*k {
			t.Errorf("cosine-only skyband p99 %d rows exceeds 2·K = %d", p99, 2*k)
		}
		if p99 > 10*k {
			t.Errorf("%s skyband p99 %d rows exceeds 10·K = %d", c.name, p99, 10*k)
		}
	}
}
