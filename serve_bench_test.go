// Serving-path benchmark: the epoch-keyed result cache's effect on the
// /search handler. The end-to-end open-loop numbers live in cmd/bench
// (workloads serve-cold and serve-churn).
package bingo_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/servecache"
	"github.com/bingo-search/bingo/internal/store"
)

// BenchmarkServeQPS measures the serving handler directly (no network):
// cached vs uncached requests per second over the Zipf mix's head query.
func BenchmarkServeQPS(b *testing.B) {
	s := store.NewSharded(8)
	fillSearchStore(s, 4000)
	eng := search.New(s)
	eng.Search(search.Query{Text: "recovery"})
	for _, v := range []struct {
		name      string
		withCache bool
	}{{"CacheOn", true}, {"CacheOff", false}} {
		b.Run(v.name, func(b *testing.B) {
			var cache *servecache.Cache
			if v.withCache {
				cache = servecache.New(1024)
			}
			api := serve.New(s, eng, serve.Options{Cache: cache})
			api.SetReady(true)
			h := api.Handler()
			req := httptest.NewRequest(http.MethodGet, "/search?q=recovery+transaction&k=10", nil)
			// Warm: first request fills the cache (or proves it absent).
			h.ServeHTTP(httptest.NewRecorder(), req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
