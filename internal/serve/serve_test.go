package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// buildCorpus seeds a deterministic store (the equivalence-suite corpus
// shape: mixed topics, shared vocabulary, varied confidences).
func buildCorpus(nDocs int) *store.Store {
	s := store.NewSharded(4)
	fillCorpus(s, nDocs, 0)
	return s
}

var corpusVocab = []string{
	"databas", "recoveri", "transact", "aries", "log", "lock", "btree",
	"index", "join", "queri", "optim", "concurr", "commit", "abort",
}

func fillCorpus(s *store.Store, nDocs, offset int) {
	rng := rand.New(rand.NewSource(int64(42 + offset)))
	topics := []string{"ROOT/db", "ROOT/db/recovery", "ROOT/web", "ROOT/OTHERS"}
	for i := 0; i < nDocs; i++ {
		terms := map[string]int{}
		for k := 0; k < 3+rng.Intn(5); k++ {
			terms[corpusVocab[rng.Intn(len(corpusVocab))]] += 1 + rng.Intn(3)
		}
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://h%d.example/doc%d", (i+offset)%17, i+offset),
			Title:      fmt.Sprintf("doc %d", i+offset),
			Text:       "recovery transaction database systems",
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Terms:      terms,
		})
	}
}

// equivalenceParams are the PR 5 equivalence-suite query shapes as HTTP
// parameters: vague, exact, topic-filtered, weighted, phrase, re-limited.
func equivalenceParams() []string {
	return []string{
		"q=recovery+transaction",
		"q=recovery+transaction&exact=1",
		"q=database&topic=ROOT%2Fdb",
		"q=database+index+btree&k=25",
		"q=recovery&wcos=0.5&wconf=0.5",
		"q=transaction+log&wcos=0.4&wconf=0.3&wauth=0.3",
		"q=%22recovery+transaction%22+database",
	}
}

func newTestAPI(s *store.Store, withCache bool) *API {
	var cache *servecache.Cache
	if withCache {
		cache = servecache.New(1024)
	}
	a := New(s, search.New(s), Options{Cache: cache})
	a.SetReady(true)
	return a
}

// wireResponse decodes a /search answer with its hits array kept as bytes.
type wireResponse struct {
	searchResponse
	Hits json.RawMessage `json:"hits"`
}

// get performs one request against the API handler directly (no network).
func get(t *testing.T, a *API, target string) (*httptest.ResponseRecorder, wireResponse) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	w := httptest.NewRecorder()
	a.Handler().ServeHTTP(w, r)
	var resp wireResponse
	if w.Code == http.StatusOK && strings.Contains(w.Header().Get("Content-Type"), "json") {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", target, err, w.Body.String())
		}
	}
	return w, resp
}

// TestSearchEndpointShape: a plain query answers 200 with well-formed
// fields.
func TestSearchEndpointShape(t *testing.T) {
	a := newTestAPI(buildCorpus(300), true)
	w, resp := get(t, a, "/search?q=recovery+transaction&k=5")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if resp.K != 5 || resp.Query != "recovery transaction" {
		t.Fatalf("echo fields wrong: %+v", resp)
	}
	var hits []HitJSON
	if err := json.Unmarshal(resp.Hits, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("%d hits, want 1..5", len(hits))
	}
	for _, h := range hits {
		if h.URL == "" || h.Topic == "" {
			t.Fatalf("hit missing fields: %+v", h)
		}
	}
	if len(resp.Epochs) != 4 {
		t.Fatalf("epochs = %v, want one per store shard", resp.Epochs)
	}
	if resp.TookNanos <= 0 {
		t.Fatal("took_ns not populated")
	}
}

// TestSearchParamValidation: missing q and malformed numerics are 400s.
func TestSearchParamValidation(t *testing.T) {
	a := newTestAPI(buildCorpus(50), true)
	for _, target := range []string{
		"/search",
		"/search?q=",
		"/search?q=x&k=0",
		"/search?q=x&k=banana",
		"/search?q=x&wcos=-1",
		"/search?q=x&wauth=nope",
		"/search?q=x&wconf=NaN",
		"/search?q=x&wauth=Inf",
		"/search?q=x&wcos=infinity",
	} {
		if w, _ := get(t, a, target); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, w.Code)
		}
	}
	// k above the cap clamps instead of failing.
	if w, resp := get(t, a, "/search?q=recovery&k=100000"); w.Code != http.StatusOK || resp.K != 100 {
		t.Errorf("oversized k: status %d, k %d", w.Code, resp.K)
	}
}

// TestCacheHitServesIdenticalBytes: the second identical query is a cache
// hit and its hits array is byte-identical to the uncached first answer.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	a := newTestAPI(buildCorpus(300), true)
	for _, qs := range equivalenceParams() {
		target := "/search?" + qs
		_, first := get(t, a, target)
		if first.Cached {
			t.Fatalf("%s: first request claims cached", qs)
		}
		_, second := get(t, a, target)
		if !second.Cached {
			t.Fatalf("%s: second request missed the cache", qs)
		}
		if string(first.Hits) != string(second.Hits) {
			t.Fatalf("%s: cached hits differ from computed hits\nfirst:  %s\nsecond: %s",
				qs, first.Hits, second.Hits)
		}
	}
}

// TestCacheNormalizationHits: text differing only in case and whitespace
// shares one cache entry.
func TestCacheNormalizationHits(t *testing.T) {
	a := newTestAPI(buildCorpus(300), true)
	_, first := get(t, a, "/search?q=recovery+transaction")
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	_, second := get(t, a, "/search?q=++Recovery+++TRANSACTION+")
	if !second.Cached {
		t.Fatal("normalized variant missed the cache")
	}
	if string(first.Hits) != string(second.Hits) {
		t.Fatal("normalized variant served different hits")
	}
}

// TestCacheEpochCorrectness is the core correctness contract: after every
// kind of store mutation — insert, delete, a recrawl that reclassifies —
// the very next query misses the cache and its results are bit-identical
// to an uncached engine over the same store.
func TestCacheEpochCorrectness(t *testing.T) {
	s := buildCorpus(300)
	cached := newTestAPI(s, true)
	uncached := newTestAPI(s, false)

	check := func(stage string) {
		t.Helper()
		for _, qs := range equivalenceParams() {
			target := "/search?" + qs
			_, got := get(t, cached, target)
			if got.Cached {
				t.Fatalf("%s/%s: query served from cache across a mutation", stage, qs)
			}
			_, want := get(t, uncached, target)
			if string(got.Hits) != string(want.Hits) {
				t.Fatalf("%s/%s: cached-path hits not bit-identical to uncached\ngot:  %s\nwant: %s",
					stage, qs, got.Hits, want.Hits)
			}
			// And the follow-up identical query must be a pure hit with
			// the same bytes.
			_, again := get(t, cached, target)
			if !again.Cached || string(again.Hits) != string(got.Hits) {
				t.Fatalf("%s/%s: warm re-query broken (cached=%v)", stage, qs, again.Cached)
			}
		}
	}

	check("initial")
	s.Insert(store.Document{
		URL: "http://new.example/inserted", Title: "inserted", Topic: "ROOT/db",
		Text: "recovery transaction database", Confidence: 0.9,
		Terms: map[string]int{"recoveri": 3, "transact": 2, "databas": 1},
	})
	check("after insert")
	if !s.Delete("http://new.example/inserted") {
		t.Fatal("delete failed")
	}
	check("after delete")
	// A stored row never changes: a recrawl that reclassifies replaces it
	// under a new DocID.
	d, err := s.GetByURL("http://h0.example/doc0")
	if err != nil {
		t.Fatal(err)
	}
	d.Topic, d.Confidence = "ROOT/web", 0.42
	s.Insert(d)
	check("after reclassify")
}

// TestCacheChurnConcurrent is the -race workout: writers churn the store
// while queriers hammer the cached API; every response must be well-formed
// and every non-cached response must carry a plausible epoch vector.
func TestCacheChurnConcurrent(t *testing.T) {
	s := buildCorpus(200)
	a := newTestAPI(s, true)
	targets := make([]string, 0, len(equivalenceParams()))
	for _, qs := range equivalenceParams() {
		targets = append(targets, "/search?"+qs)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := 0
		for ctx.Err() == nil {
			url := fmt.Sprintf("http://churn.example/slot%d", i%8)
			s.Insert(store.Document{
				URL: url, Topic: "ROOT/db", Title: "churn",
				Text:  "recovery transaction",
				Terms: map[string]int{"recoveri": 1 + i%3, "transact": 1},
			})
			if i%2 == 1 {
				s.Delete(url)
			}
			i++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 150; i++ {
				target := targets[(g+i)%len(targets)]
				r := httptest.NewRequest(http.MethodGet, target, nil)
				w := httptest.NewRecorder()
				a.Handler().ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("%s: status %d", target, w.Code)
					return
				}
				var resp wireResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("%s: %v", target, err)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	cancel()
	writer.Wait()
}

// TestAdmissionShedsOverHTTP: with the only slot held, /search sheds 429
// with a sane Retry-After; after release it serves again.
func TestAdmissionShedsOverHTTP(t *testing.T) {
	ctrl := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 3 * time.Second})
	a := New(buildCorpus(100), search.New(buildCorpus(1)), Options{Admission: ctrl})
	a.SetReady(true)

	release, err := ctrl.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w, _ := get(t, a, "/search?q=recovery")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Fatalf("Retry-After = %q, want a sane integer", w.Header().Get("Retry-After"))
	}
	release()
	if w, _ := get(t, a, "/search?q=recovery"); w.Code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", w.Code)
	}
	if got := ctrl.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
}

// TestReadyzLifecycle: readiness flips 200 <-> 503; healthz stays 200.
func TestReadyzLifecycle(t *testing.T) {
	a := newTestAPI(buildCorpus(10), false)
	if w, _ := get(t, a, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("ready: %d", w.Code)
	}
	a.SetReady(false)
	if w, _ := get(t, a, "/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: %d, want 503", w.Code)
	}
	if w, _ := get(t, a, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", w.Code)
	}
	a.SetReady(true)
	if w, _ := get(t, a, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("re-ready: %d", w.Code)
	}
}

// TestMethodNotAllowed: only GET/HEAD reach the search handler.
func TestMethodNotAllowed(t *testing.T) {
	a := newTestAPI(buildCorpus(10), true)
	r := httptest.NewRequest(http.MethodPost, "/search?q=x", nil)
	w := httptest.NewRecorder()
	a.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: %d, want 405", w.Code)
	}
}

// buildTenantCorpus is buildCorpus plus a second tenant's rows sharing the
// vocabulary.
func buildTenantCorpus(nDocs int) *store.Store {
	s := buildCorpus(nDocs)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < nDocs/2; i++ {
		terms := map[string]int{}
		for k := 0; k < 3+rng.Intn(5); k++ {
			terms[corpusVocab[rng.Intn(len(corpusVocab))]] += 1 + rng.Intn(3)
		}
		s.Insert(store.Document{
			Tenant:     "beta",
			URL:        fmt.Sprintf("http://beta%d.example/doc%d", i%9, i),
			Title:      fmt.Sprintf("beta doc %d", i),
			Text:       "recovery transaction database systems",
			Topic:      "ROOT/db",
			Confidence: float64(rng.Intn(1000)) / 1000,
			Terms:      terms,
		})
	}
	return s
}

// TestSearchTenantParam: the tenant parameter scopes /search to one
// portal's rows, and omitting it serves the default tenant exactly as
// pre-tenancy clients expect.
func TestSearchTenantParam(t *testing.T) {
	s := buildTenantCorpus(120)
	a := newTestAPI(s, true)
	type hit struct {
		URL string `json:"url"`
	}
	for _, tc := range []struct {
		target string
		prefix string
	}{
		{"/search?q=recovery+transaction&k=50", "http://h"},
		{"/search?q=recovery+transaction&k=50&tenant=beta", "http://beta"},
	} {
		w, resp := get(t, a, tc.target)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.target, w.Code)
		}
		var hits []hit
		if err := json.Unmarshal(resp.Hits, &hits); err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatalf("%s: no hits — weak test", tc.target)
		}
		for _, h := range hits {
			if !strings.HasPrefix(h.URL, tc.prefix) {
				t.Fatalf("%s leaked a foreign tenant's doc %s", tc.target, h.URL)
			}
		}
	}
	// The two tenants' identical queries occupy distinct cache entries:
	// repeating both still serves each tenant its own rows.
	for _, tc := range []struct {
		target string
		prefix string
	}{
		{"/search?q=recovery+transaction&k=50", "http://h"},
		{"/search?q=recovery+transaction&k=50&tenant=beta", "http://beta"},
	} {
		_, resp := get(t, a, tc.target)
		if !resp.Cached {
			t.Fatalf("%s: expected a cache hit on repeat", tc.target)
		}
		var hits []hit
		if err := json.Unmarshal(resp.Hits, &hits); err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if !strings.HasPrefix(h.URL, tc.prefix) {
				t.Fatalf("cached %s leaked a foreign tenant's doc %s", tc.target, h.URL)
			}
		}
	}
	if w, _ := get(t, a, "/search?q=x&tenant="+strings.Repeat("a", 65)); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized tenant accepted: %d", w.Code)
	}
}

// TestTenantQuotaShedsOverHTTP: a tenant past its in-flight quota gets a
// tenant-tagged 429 while other tenants keep being served.
func TestTenantQuotaShedsOverHTTP(t *testing.T) {
	ctrl := admit.New(admit.Options{MaxInFlight: 8, MaxQueue: -1, TenantMaxInFlight: 1, RetryAfter: 2 * time.Second})
	s := buildTenantCorpus(60)
	a := New(s, search.New(s), Options{Admission: ctrl, Cache: servecache.New(64)})
	a.SetReady(true)

	release, err := ctrl.AcquireTenant(context.Background(), "beta")
	if err != nil {
		t.Fatal(err)
	}
	w, _ := get(t, a, "/search?q=recovery&tenant=beta")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("hot tenant: status %d, want 429", w.Code)
	}
	if !strings.Contains(w.Body.String(), "tenant_limit") || !strings.Contains(w.Body.String(), "beta") {
		t.Fatalf("429 body not tenant-tagged: %q", w.Body.String())
	}
	// The default tenant is unaffected by beta's saturation.
	if w, _ := get(t, a, "/search?q=recovery"); w.Code != http.StatusOK {
		t.Fatalf("default tenant sheds with beta hot: %d", w.Code)
	}
	release()
	if w, _ := get(t, a, "/search?q=recovery&tenant=beta"); w.Code != http.StatusOK {
		t.Fatalf("beta after release: %d", w.Code)
	}
}
