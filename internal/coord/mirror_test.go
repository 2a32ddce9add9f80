package coord

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
)

// TestCrawlMirroredThroughRouterAnswersLikeItsStore: a tiny-world crawl
// whose store mirrors into two shard servers through the ingest Router
// leaves the fleet answering /search — for the title words of a bookmark
// seed, stored by the bootstrap — with the same bytes as the
// single-process engine over the crawl's own store, took_ns and the
// provenance field aside.
func TestCrawlMirroredThroughRouterAnswersLikeItsStore(t *testing.T) {
	f := startFleet(t, []*store.Store{store.NewSharded(2), store.NewSharded(2)})
	defer f.close()
	router := NewRouter(f.coord.Clients(), RouterOptions{QueueLen: 256})

	world := corpus.Generate(corpus.TinyConfig())
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	eng, err := core.New(core.Config{
		Topics:        []core.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		OthersURLs:    world.GeneralPageURLs(12),
		Transport:     world.RoundTripper(),
		DNSServers:    []core.DNSServerSpec{{Table: table}},
		LearnBudget:   150,
		HarvestBudget: 400,
		FetchTimeout:  5 * time.Second,
		Sink:          router,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	for _, a := range router.Acks() {
		if a.DroppedRows != 0 {
			t.Fatalf("shard %s dropped %d rows", a.Addr, a.DroppedRows)
		}
	}
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := eng.Store()
	if got, want := f.coord.TotalDocs(), st.NumDocs(); got != want {
		t.Fatalf("fleet holds %d documents, the crawl's store %d", got, want)
	}

	seed, err := st.GetByURL(world.SeedURLs()[0])
	if err != nil || seed.Title == "" || !seed.IsTraining {
		t.Fatalf("seed row %+v, %v", seed, err)
	}
	target := "/search?k=20&q=" + url.QueryEscape(seed.Title)
	local := serve.New(st, search.New(st), serve.Options{})
	dist := NewAPI(f.coord)
	varying := regexp.MustCompile(`"took_ns":[0-9]+,("epochs":\[[0-9,]*\],|"version":"[^"]*",)`)
	answer := func(h http.HandlerFunc) []byte {
		w := httptest.NewRecorder()
		h(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK || !varying.Match(w.Body.Bytes()) {
			t.Fatalf("%s: %d %s", target, w.Code, w.Body.String())
		}
		return varying.ReplaceAll(w.Body.Bytes(), nil)
	}
	want, got := answer(local.HandleSearch), answer(dist.HandleSearch)
	if !bytes.Contains(want, []byte(`"url":"`+seed.URL+`"`)) {
		t.Fatalf("the single-process answer misses the seed %s: %s", seed.URL, want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet answer differs\n got: %s\nwant: %s", got, want)
	}
}
