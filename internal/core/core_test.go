package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/cluster"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// newTestEngine wires an engine to the tiny synthetic world.
func newTestEngine(t *testing.T, mut func(*Config)) (*Engine, *corpus.World) {
	t.Helper()
	world := corpus.Generate(corpus.TinyConfig())
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	cfg := Config{
		Topics: []TopicSpec{{
			Path:  []string{"databases"},
			Seeds: world.SeedURLs(),
		}},
		OthersURLs:    world.GeneralPageURLs(12),
		Transport:     world.RoundTripper(),
		DNSServers:    []DNSServerSpec{{Table: table}, {Table: table}},
		LearnBudget:   150,
		HarvestBudget: 400,
		NAuth:         8,
		NConf:         8,
		FetchTimeout:  5 * time.Second,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, world
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no topics accepted")
	}
	if _, err := New(Config{Topics: []TopicSpec{{Path: []string{"x"}}}}); err == nil {
		t.Error("topic without seeds accepted")
	}
	if _, err := New(Config{Topics: []TopicSpec{{Path: []string{"a/b"}, Seeds: []string{"u"}}}}); err == nil {
		t.Error("invalid path accepted")
	}
}

func TestBootstrapTrainsClassifier(t *testing.T) {
	e, world := newTestEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Classifier() == nil {
		t.Fatal("no classifier after bootstrap")
	}
	if e.Retrains() != 1 {
		t.Errorf("retrains = %d", e.Retrains())
	}
	// 2 bookmark seeds; the second is a frameset whose 2 frames become
	// separate training documents (the paper's Gray analog).
	if e.TrainingSize() != len(world.SeedURLs())+2 {
		t.Errorf("training size = %d, want %d", e.TrainingSize(), len(world.SeedURLs())+2)
	}
	// seeds stored and flagged
	d, err := e.Store().GetByURL(world.SeedURLs()[0])
	if err != nil || !d.IsTraining {
		t.Errorf("seed not stored as training: %+v, %v", d, err)
	}
	// frontier primed with seed out-links
	if e.def.frontier.Len() == 0 {
		t.Error("frontier empty after bootstrap")
	}
}

// TestBootstrapStoresDerivedTerms: the seed and frame documents Bootstrap
// stores carry the term vectors their titles and texts derive, the
// producer contract WAL replay and shard-side inserts rely on.
func TestBootstrapStoresDerivedTerms(t *testing.T) {
	e, world := newTestEngine(t, nil)
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := 0
	e.Store().VisitDocs(func(d store.Document) bool {
		if want := textproc.DocTerms(d.Title, d.Text); len(want) == 0 || !reflect.DeepEqual(d.Terms, want) {
			t.Fatalf("bootstrap stored %s with terms %v, want %v", d.URL, d.Terms, want)
		}
		n++
		return true
	})
	// The seeds, and the frameset seed's two frames.
	if want := len(world.SeedURLs()) + 2; n != want {
		t.Fatalf("bootstrap stored %d documents, want %d", n, want)
	}
}

func TestBootstrapFailsWithoutOthers(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) { c.OthersURLs = nil })
	if err := e.Bootstrap(context.Background()); err == nil {
		t.Fatal("bootstrap without OTHERS succeeded")
	}
}

func TestLearnPromotesArchetypesAndRetrains(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	before := e.TrainingSize()
	stats, err := e.Learn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredPages == 0 {
		t.Fatal("learning crawl stored nothing")
	}
	if e.TrainingSize() <= before {
		t.Errorf("no archetypes promoted: %d -> %d", before, e.TrainingSize())
	}
	if e.Retrains() != 2 {
		t.Errorf("retrains = %d", e.Retrains())
	}
	// learning stayed in the seed domains
	for _, d := range e.Store().All() {
		if d.IsTraining {
			continue
		}
		if host := hits.HostOf(d.URL); crawler.RegisteredDomain(host) != "databases.example" {
			t.Errorf("learning escaped seed domains: %s", d.URL)
		}
	}
}

// TestLinkAnalysisPortedLinkIsIntraHost: archetype selection groups hosts
// the way authority ranking does, so a link from h.example:8080 to
// h.example is intra-host and gives its target no authority, while the same
// link from another host does.
func TestLinkAnalysisPortedLinkIsIntraHost(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	defer e.Close()
	const topic = "ROOT/databases"
	for _, u := range []string{"http://h.example:8080/hub", "http://h.example/auth", "http://other.example/hub", "http://h.example/auth2"} {
		e.store.Insert(store.Document{URL: u, Topic: topic})
	}
	e.store.AddLink(store.Link{From: "http://h.example:8080/hub", To: "http://h.example/auth"})
	e.store.AddLink(store.Link{From: "http://other.example/hub", To: "http://h.example/auth2"})
	authorities, _ := e.def.linkAnalysis(topic)
	auth := map[string]float64{}
	for _, s := range authorities {
		auth[s.ID] = s.Value
	}
	if a := auth["http://h.example/auth"]; a != 0 {
		t.Errorf("ported same-host link gave authority %v, want 0 (intra-host)", a)
	}
	if a := auth["http://h.example/auth2"]; a <= 0 {
		t.Errorf("inter-host link gave authority %v, want > 0", a)
	}
}

func TestFullRunFindsAuthors(t *testing.T) {
	// One worker: the thresholds below are tuned to the tiny world, and with
	// 15 workers the interleaving decides how much of it the learning phase
	// leaves for harvest (17-28 stored pages against the floor of 25).
	e, world := newTestEngine(t, func(c *Config) { c.Workers = 1 })
	learn, harvest, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if e.Phase() != PhaseDone {
		t.Errorf("phase = %v", e.Phase())
	}
	// The tiny world has only ~270 pages and learning covers much of the
	// seed domain, so harvest mainly adds the out-of-domain remainder.
	if harvest.StoredPages < 25 {
		t.Errorf("harvest did little: learn=%+v harvest=%+v", learn, harvest)
	}
	var stored []string
	for _, d := range e.Store().All() {
		stored = append(stored, d.URL)
	}
	ev := world.Evaluate(stored, nil, 10)
	if ev.FoundTop < 5 {
		t.Errorf("found only %d/10 top authors; stats learn=%+v harvest=%+v", ev.FoundTop, learn, harvest)
	}
	if ev.FoundAll < 15 {
		t.Errorf("found only %d/40 authors overall", ev.FoundAll)
	}
	// positively classified documents exist under the topic
	if got := e.Store().ByTopic("ROOT/databases"); len(got) == 0 {
		t.Error("no documents assigned to the topic")
	}
}

func TestHarvestBeyondSeedDomains(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	outside := 0
	for _, d := range e.Store().All() {
		if crawler.RegisteredDomain(hits.HostOf(d.URL)) != "databases.example" {
			outside++
		}
	}
	if outside == 0 {
		t.Error("harvest never left the seed domains")
	}
}

func TestSearchAfterCrawl(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits := e.Search().Search(search.Query{Text: "database recovery transaction", Topic: "ROOT/databases"})
	if len(hits) == 0 {
		t.Fatal("no search results after crawl")
	}
	for _, h := range hits {
		if h.Score <= 0 {
			t.Errorf("non-positive score: %+v", h.Doc.URL)
		}
	}
}

func TestClusterTopicAfterCrawl(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, k, docs := clusterTopic(e, "ROOT/databases", 2, 3)
	if len(docs) == 0 {
		t.Skip("no topic docs to cluster")
	}
	if k < 2 || k > 3 {
		t.Errorf("chosen K = %d", k)
	}
	if len(res.Assign) != len(docs) {
		t.Errorf("assignments %d != docs %d", len(res.Assign), len(docs))
	}
	if len(res.Labels) == 0 || len(res.Labels[0]) == 0 {
		t.Error("no cluster labels")
	}
}

// clusterTopic runs the portal topic page's §3.6 cluster analysis over one
// of the default tenant's classes.
func clusterTopic(e *Engine, topicPath string, kMin, kMax int) (cluster.Result, int, []store.Document) {
	docs := e.Store().ByTopic(topicPath)
	terms := make([]map[string]int, len(docs))
	for i, d := range docs {
		terms[i] = d.Terms
	}
	res, k := cluster.ChooseKTerms(terms, kMin, kMax, cluster.Options{Seed: 1})
	return res, k, docs
}

func TestFeedbackAddRemoveTraining(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	// promote some stored doc that is not already training data
	var target string
	for _, d := range e.Store().ByTopic("ROOT/databases") {
		if !d.IsTraining {
			target = d.URL
		}
	}
	if target == "" {
		t.Skip("no non-training classified docs")
	}
	before := e.TrainingSize()
	if err := e.AddTrainingDoc("ROOT/databases", target); err != nil {
		t.Fatal(err)
	}
	if e.TrainingSize() != before+1 {
		t.Errorf("training size = %d", e.TrainingSize())
	}
	if err := e.Retrain(); err != nil {
		t.Fatal(err)
	}
	e.RemoveTrainingDoc(target)
	if e.TrainingSize() != before {
		t.Errorf("after remove = %d", e.TrainingSize())
	}
	if err := e.AddTrainingDoc("ROOT/databases", "http://nonexistent.example/"); err == nil {
		t.Error("AddTrainingDoc on unknown URL succeeded")
	}
}

func TestExpertSearchWorkflow(t *testing.T) {
	// §5.3: single-topic crawl from ARIES lecture seeds, then keyword
	// filtering for "source code release" must surface the needle pages.
	world := corpus.Generate(corpus.TinyConfig())
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	e, err := New(Config{
		Topics: []TopicSpec{{
			Path:  []string{"aries"},
			Seeds: world.ExpertSeedURLs(),
		}},
		OthersURLs:    world.GeneralPageURLs(12),
		Transport:     world.RoundTripper(),
		DNSServers:    []DNSServerSpec{{Table: table}},
		LearnBudget:   60,
		HarvestBudget: 250,
		LearnDepth:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	hits := e.Search().Search(search.Query{Text: "source code release", Limit: 10})
	if len(hits) == 0 {
		t.Fatal("expert query returned nothing")
	}
	needles := map[string]bool{}
	for _, n := range world.NeedleURLs() {
		needles[n] = true
	}
	found := false
	for _, h := range hits {
		if needles[h.Doc.URL] {
			found = true
		}
	}
	if !found {
		var urls []string
		for _, h := range hits {
			urls = append(urls, h.Doc.URL)
		}
		t.Errorf("needle pages not in top-10: %v", urls)
	}
}

func TestMetaModeSwitchesByPhase(t *testing.T) {
	e, _ := newTestEngine(t, func(c *Config) {
		c.LearnMeta = classify.MetaUnanimous
		c.HarvestMeta = classify.MetaWeighted
	})
	ctx := context.Background()
	if err := e.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Learn(ctx); err != nil {
		t.Fatal(err)
	}
	e.def.mu.RLock()
	learnMeta := e.def.meta
	e.def.mu.RUnlock()
	if learnMeta != classify.MetaUnanimous {
		t.Errorf("learn meta = %v", learnMeta)
	}
	if _, err := e.Harvest(ctx); err != nil {
		t.Fatal(err)
	}
	e.def.mu.RLock()
	harvestMeta := e.def.meta
	e.def.mu.RUnlock()
	if harvestMeta != classify.MetaWeighted {
		t.Errorf("harvest meta = %v", harvestMeta)
	}
}

func TestRuntimeStats(t *testing.T) {
	e, _ := newTestEngine(t, nil)
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rs := e.Runtime()
	if rs.StoredDocs == 0 || rs.TrainingDocs == 0 || rs.Retrains < 2 {
		t.Errorf("runtime = %+v", rs)
	}
	if rs.FrontierPushed == 0 {
		t.Errorf("no frontier activity: %+v", rs)
	}
	if rs.DNSMisses == 0 {
		t.Errorf("no DNS activity: %+v", rs)
	}
}

func TestMultiTopicPortalCrawl(t *testing.T) {
	// Two top-level topics crawled in one session (the Yahoo-style portal
	// case): documents must flow into both classes.
	world := corpus.Generate(corpus.TinyConfig())
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	bioSeeds := []string{
		"http://cs00.biology.example/project00.html",
		"http://cs01.biology.example/project01.html",
	}
	e, err := New(Config{
		Topics: []TopicSpec{
			{Path: []string{"databases"}, Seeds: world.SeedURLs()},
			{Path: []string{"biology"}, Seeds: bioSeeds},
		},
		OthersURLs:    world.GeneralPageURLs(12),
		Transport:     world.RoundTripper(),
		DNSServers:    []DNSServerSpec{{Table: table}},
		LearnBudget:   150,
		HarvestBudget: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	db := e.Store().ByTopic("ROOT/databases")
	bio := e.Store().ByTopic("ROOT/biology")
	if len(db) < 20 || len(bio) < 10 {
		t.Fatalf("class sizes: databases=%d biology=%d", len(db), len(bio))
	}
	// cross-contamination must be low: biology-class docs should mostly be
	// true biology pages
	right, wrong := 0, 0
	for _, d := range bio {
		if ti, ok := world.PageTopic(d.URL); ok && ti == 1 {
			right++
		} else {
			wrong++
		}
	}
	if right < wrong*3 {
		t.Errorf("biology class impure: %d right, %d wrong", right, wrong)
	}
}
