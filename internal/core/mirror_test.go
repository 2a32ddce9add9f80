package core

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/bingo-search/bingo/internal/store"
)

// recordingSink counts every row a store mirrors to it.
type recordingSink struct {
	mu        sync.Mutex
	docs      map[[2]string]int // (tenant, URL)
	links     map[store.Link]int
	redirects map[store.Redirect]int
	flushes   int
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		docs:      map[[2]string]int{},
		links:     map[store.Link]int{},
		redirects: map[store.Redirect]int{},
	}
}

func (r *recordingSink) Put(docs []store.Document, links []store.Link, redirects []store.Redirect) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range docs {
		r.docs[[2]string{d.Tenant, d.URL}]++
	}
	for _, l := range links {
		r.links[l]++
	}
	for _, rd := range redirects {
		r.redirects[rd]++
	}
}

func (r *recordingSink) Flush() error {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
	return nil
}

// TestSinkMirrorsEveryStoredRow: a crawl's sink receives exactly the rows
// its store holds — every (tenant, URL) document, the bootstrap seeds and
// their frames included, and every out-link and redirect row, each exactly
// once — and is flushed at the end of each crawl phase.
func TestSinkMirrorsEveryStoredRow(t *testing.T) {
	rec := newRecordingSink()
	e, world := newTestEngine(t, func(c *Config) { c.Sink = rec })
	defer e.Close()
	if _, _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Store()
	docs := st.All()
	training := 0
	for _, d := range docs {
		if n := rec.docs[[2]string{d.Tenant, d.URL}]; n != 1 {
			t.Errorf("document %s mirrored %d times, want 1", d.URL, n)
		}
		if d.IsTraining {
			training++
		}
	}
	if len(rec.docs) != len(docs) {
		t.Errorf("sink saw %d documents, the store holds %d", len(rec.docs), len(docs))
	}
	if want := len(world.SeedURLs()) + 2; training != want {
		t.Errorf("%d bootstrap documents stored, want %d (seeds and frames)", training, want)
	}
	for _, seed := range world.SeedURLs() {
		if rec.docs[[2]string{"", seed}] != 1 {
			t.Errorf("seed %s not mirrored", seed)
		}
	}
	links := map[store.Link]int{}
	for _, l := range st.Links() {
		links[l]++
	}
	if len(links) == 0 || !equalCounts(links, rec.links) {
		t.Errorf("sink saw %d distinct links, the store holds %d (or the counts differ)", len(rec.links), len(links))
	}
	redirects := map[store.Redirect]int{}
	for _, r := range st.Redirects() {
		redirects[r]++
	}
	if !equalCounts(redirects, rec.redirects) {
		t.Errorf("sink saw redirects %v, the store holds %v", rec.redirects, redirects)
	}
	if rec.flushes < 2 {
		t.Errorf("sink flushed %d times, want one per crawl phase (2)", rec.flushes)
	}
}

func equalCounts[K comparable](a, b map[K]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// movedSeed answers from with a 301 to to and passes everything else on.
type movedSeed struct {
	from, to string
	next     http.RoundTripper
}

func (m movedSeed) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.String() != m.from {
		return m.next.RoundTrip(r)
	}
	return &http.Response{
		StatusCode: http.StatusMovedPermanently,
		Header:     http.Header{"Location": {m.to}},
		Body:       io.NopCloser(strings.NewReader("")),
		Request:    r,
	}, nil
}

// TestBootstrapWritesLikeACrawl: Bootstrap stores its seeds and frames the
// way the crawler stores a page — one workspace, so one WAL record per
// touched shard, a retrieval time on every row, and a redirect row for a
// bookmark that has moved.
func TestBootstrapWritesLikeACrawl(t *testing.T) {
	dir := t.TempDir()
	var moved, target string
	e, world := newTestEngine(t, func(c *Config) {
		c.DataDir = dir
		seeds := append([]string(nil), c.Topics[0].Seeds...)
		target = seeds[0]
		moved = target[:strings.LastIndexByte(target, '/')] + "/moved-bookmark"
		seeds[0] = moved
		c.Topics = []TopicSpec{{Path: c.Topics[0].Path, Seeds: seeds}}
		c.Transport = movedSeed{from: moved, to: target, next: c.Transport}
	})
	if err := e.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := e.Store()
	want := len(world.SeedURLs()) + 2
	if n := st.NumDocs(); n != want {
		t.Fatalf("%d documents after bootstrap, want %d", n, want)
	}
	for _, d := range st.All() {
		if !d.IsTraining || d.CrawledAt.IsZero() {
			t.Errorf("%s: IsTraining %v, CrawledAt %v", d.URL, d.IsTraining, d.CrawledAt)
		}
	}
	d, err := st.GetByURL(moved)
	if err != nil || d.FinalURL != target {
		t.Fatalf("moved seed: %+v, %v", d, err)
	}
	if rs := st.Redirects(); len(rs) != 1 || rs[0] != (store.Redirect{From: moved, To: target}) {
		t.Errorf("redirects %v, want %s -> %s", rs, moved, target)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, 0, store.TierOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.Recovery()
	if rec.WALDocs != want || rec.WALRecords == 0 || rec.WALRecords > re.NumShards() {
		t.Errorf("bootstrap logged %d documents in %d WAL records, want %d documents in at most one record per shard (%d)",
			rec.WALDocs, rec.WALRecords, want, re.NumShards())
	}
}
