package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/rpc"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// The coordinator behind the one front door: serve.API over a Coordinator
// sheds, caches by global-stats version (never a degraded answer), and
// accounts for every request exactly as it does over a single process.

// frontAnswer is the part of a /search response these tests read.
type frontAnswer struct {
	Cached   bool            `json:"cached"`
	Version  string          `json:"version"`
	Degraded bool            `json:"degraded"`
	Hits     json.RawMessage `json:"hits"`
}

// ask sends one GET through h and decodes a 200's body.
func ask(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, frontAnswer) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	var ans frontAnswer
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &ans); err != nil {
			t.Fatalf("%s: %v\n%s", target, err, w.Body)
		}
	}
	return w, ans
}

// TestShardedFrontDoorSheds: with its one in-flight slot held by a query
// parked inside a shard, a coordinator-backed API sheds the next request
// with 429 and a Retry-After, then serves again once the slot frees.
func TestShardedFrontDoorSheds(t *testing.T) {
	_, fleets := buildDistCorpus(3, 200, []int{2})
	entered, hold := make(chan struct{}), make(chan struct{})
	var park sync.Once
	f := startFleetWith(t, fleets[2], func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == rpc.PathSearch {
				park.Do(func() {
					close(entered)
					<-hold
				})
			}
			h.ServeHTTP(w, r)
		})
	})
	defer f.close()
	if err := f.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctrl := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
	api := serve.NewFor(f.coord, serve.Options{Admission: ctrl})

	first := make(chan int)
	go func() {
		w, _ := ask(t, api.Handler(), "/search?q=recovery+transaction")
		first <- w.Code
	}()
	<-entered
	w, _ := ask(t, api.Handler(), "/search?q=database")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d with the slot held, want 429: %s", w.Code, w.Body)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra != 2 {
		t.Fatalf("Retry-After = %q, want 2", w.Header().Get("Retry-After"))
	}
	close(hold)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held query: status %d, want 200", code)
	}
	if w, _ := ask(t, api.Handler(), "/search?q=database"); w.Code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", w.Code)
	}
}

// TestShardedCacheByVersion: a complete answer is cached under the
// global-stats version; a shard's ingest plus a Sync moves the version, so
// the next identical query misses and sees the new document; an answer
// degraded by a dead shard is never cached.
func TestShardedCacheByVersion(t *testing.T) {
	_, fleets := buildDistCorpus(5, 300, []int{2})
	parts := fleets[2]
	f := startFleet(t, parts)
	defer f.close()
	ctx := context.Background()
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	api := serve.NewFor(f.coord, serve.Options{Cache: servecache.New(64)}).Handler()
	const target = "/search?q=recovery+transaction&k=20"

	_, first := ask(t, api, target)
	_, second := ask(t, api, target)
	if first.Cached || !second.Cached {
		t.Fatalf("cached = %v then %v, want false then true", first.Cached, second.Cached)
	}
	if string(first.Hits) != string(second.Hits) || first.Version != second.Version {
		t.Fatalf("cached answer differs\nfirst:  %s %s\nsecond: %s %s", first.Version, first.Hits, second.Version, second.Hits)
	}

	const url = "http://fresh.example/recovery"
	parts[store.RouteURL(url, 2)].Insert(docWith(url, map[string]int{"recoveri": 40, "transact": 40}, 0.99))
	if err := f.coord.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	_, third := ask(t, api, target)
	if third.Cached || third.Version == first.Version {
		t.Fatalf("after ingest + Sync: cached=%v version %s (was %s), want a miss under a new version",
			third.Cached, third.Version, first.Version)
	}
	if !strings.Contains(string(third.Hits), url) {
		t.Fatalf("new document %s missing from %s", url, third.Hits)
	}

	f.servers[1].Close()
	for i := 0; i < 2; i++ {
		w, ans := ask(t, api, "/search?q=database+index")
		if w.Code != http.StatusOK || !ans.Degraded || ans.Cached {
			t.Fatalf("dead shard, query %d: status %d degraded=%v cached=%v, want 200 degraded uncached",
				i, w.Code, ans.Degraded, ans.Cached)
		}
	}
}

// serveCounters reads the front door's outcome counters.
func serveCounters() map[string]int64 {
	out := map[string]int64{}
	for _, n := range []string{"requests", "ok", "badrequest", "shed", "errors"} {
		out[n] = metrics.NewCounter("serve_search_" + n + "_total").Value()
	}
	return out
}

// TestFrontDoorAccounting: over either Searcher, every outcome moves
// serve_search_requests_total and exactly one of ok, badrequest, shed or
// errors, so requests = ok + badrequest + shed + errors.
func TestFrontDoorAccounting(t *testing.T) {
	_, fleets := buildDistCorpus(9, 200, []int{2})
	conflict := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == rpc.PathSearch {
				w.WriteHeader(http.StatusConflict)
				_ = json.NewEncoder(w).Encode(rpc.ErrorResponse{V: rpc.ProtoVersion, Code: rpc.CodeVersionConflict, Have: "other"})
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	type outcome struct {
		name    string
		counter string
		status  int
		// run answers one request; ctrl is the API's admission gate.
		run func(t *testing.T, api http.Handler, ctrl *admit.Controller) *httptest.ResponseRecorder
	}
	plain := func(target string) func(*testing.T, http.Handler, *admit.Controller) *httptest.ResponseRecorder {
		return func(t *testing.T, api http.Handler, _ *admit.Controller) *httptest.ResponseRecorder {
			w, _ := ask(t, api, target)
			return w
		}
	}
	// slotHeld answers one request while the test holds the only slot.
	slotHeld := func(ctx context.Context) func(*testing.T, http.Handler, *admit.Controller) *httptest.ResponseRecorder {
		return func(t *testing.T, api http.Handler, ctrl *admit.Controller) *httptest.ResponseRecorder {
			release, err := ctrl.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			w := httptest.NewRecorder()
			api.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/search?q=recovery", nil).WithContext(ctx))
			return w
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	common := []outcome{
		{"ok", "ok", http.StatusOK, plain("/search?q=recovery+transaction")},
		{"missing q", "badrequest", http.StatusBadRequest, plain("/search?k=3")},
		{"negative weight", "badrequest", http.StatusBadRequest, plain("/search?q=recovery&wcos=-1")},
		{"queue deadline", "shed", http.StatusTooManyRequests, slotHeld(context.Background())},
		{"canceled while queued", "errors", http.StatusServiceUnavailable, slotHeld(canceled)},
	}

	single, _ := buildDistCorpus(9, 200, nil)
	engine := search.New(single)
	up := startFleet(t, fleets[2])
	defer up.close()
	down := startFleet(t, fleets[2])
	if err := down.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	down.close()
	stuck := startFleetWith(t, fleets[2], conflict)
	defer stuck.close()
	for _, tc := range []struct {
		name     string
		api      func(serve.Options) *serve.API
		outcomes []outcome
	}{
		{"engine", func(o serve.Options) *serve.API { return serve.New(single, engine, o) }, common},
		{"coordinator", func(o serve.Options) *serve.API { return serve.NewFor(up.coord, o) }, common},
		{"coordinator, all shards down", func(o serve.Options) *serve.API { return serve.NewFor(down.coord, o) }, []outcome{
			{"all shards down", "errors", http.StatusServiceUnavailable, plain("/search?q=recovery")},
		}},
		{"coordinator, conflict after resync", func(o serve.Options) *serve.API { return serve.NewFor(stuck.coord, o) }, []outcome{
			{"persistent conflict", "errors", http.StatusInternalServerError, plain("/search?q=recovery")},
		}},
	} {
		for _, o := range tc.outcomes {
			ctrl := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 10 * time.Millisecond})
			api := tc.api(serve.Options{Admission: ctrl, Cache: servecache.New(16)}).Handler()
			before := serveCounters()
			w := o.run(t, api, ctrl)
			if w.Code != o.status {
				t.Fatalf("%s / %s: status %d, want %d: %s", tc.name, o.name, w.Code, o.status, w.Body)
			}
			after := serveCounters()
			for n := range after {
				want := int64(0)
				if n == "requests" || n == o.counter {
					want = 1
				}
				if d := after[n] - before[n]; d != want {
					t.Fatalf("%s / %s: serve_search_%s_total moved by %d, want %d", tc.name, o.name, n, d, want)
				}
			}
		}
	}
}
