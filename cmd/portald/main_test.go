package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/bingo-search/bingo/internal/admit"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/portal"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/serve"
	"github.com/bingo-search/bingo/internal/store"
)

// TestHTMLSearchPassesTheAdmissionGate: a browser's /search (Accept:
// text/html) is shed with 429 + Retry-After while the gate's only slot is
// held, like a JSON one, is answered with the portal's page once the slot
// is free, and each request moves serve_search_requests_total and exactly
// one outcome counter.
func TestHTMLSearchPassesTheAdmissionGate(t *testing.T) {
	st := store.New()
	st.Insert(store.Document{URL: "http://a.example/", Title: "recovery", Text: "recovery",
		Terms: map[string]int{"recoveri": 1}, Topic: "ROOT/db"})
	engine := search.New(st)
	ctrl := admit.New(admit.Options{MaxInFlight: 1, MaxQueue: -1})
	api := serve.New(st, engine, serve.Options{Admission: ctrl})
	h := portalSearch(api, portal.NewWithEngine(st, engine))
	counters := func() map[string]int64 {
		out := map[string]int64{}
		for _, n := range []string{"requests", "ok", "badrequest", "shed", "errors"} {
			out[n] = metrics.NewCounter("serve_search_" + n + "_total").Value()
		}
		return out
	}
	ask := func(outcome string) *httptest.ResponseRecorder {
		t.Helper()
		before := counters()
		r := httptest.NewRequest(http.MethodGet, "/search?q=recovery", nil)
		r.Header.Set("Accept", "text/html,application/xhtml+xml")
		w := httptest.NewRecorder()
		h(w, r)
		after := counters()
		for n := range after {
			want := int64(0)
			if n == "requests" || n == outcome {
				want = 1
			}
			if d := after[n] - before[n]; d != want {
				t.Errorf("%s: serve_search_%s_total moved by %d, want %d", outcome, n, d, want)
			}
		}
		return w
	}

	release, err := ctrl.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	w := ask("shed")
	release()
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
		t.Fatalf("held slot: status %d, Retry-After %q; want 429 with Retry-After", w.Code, w.Header().Get("Retry-After"))
	}
	w = ask("ok")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "<div class=snippet><b>recovery</b>") {
		t.Fatalf("free slot: status %d, body %s", w.Code, w.Body)
	}
}
