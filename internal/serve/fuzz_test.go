package serve

import (
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzParseQuery holds ParseQuery, the one parser of outside /search
// input, to its contract: it never panics, and an accepted query has
// non-empty text, 1 ≤ Limit ≤ the cap, finite non-negative weights that
// are not all zero, and a tenant of at most 64 bytes.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []struct {
		raw  string
		maxK int
	}{
		{"q=recovery+transaction&k=5&topic=ROOT%2Fdb&exact=1", 100},
		{"q=x&k=0", 100},
		{"q=x&k=100000", 100},
		{"q=x&k=-3", 0},
		{"q=x&wcos=NaN&wconf=Inf", 100},
		{"q=x&wcos=1e309", 100},
		{"q=x&wcos=-0&wconf=0&wauth=0", 100},
		{"q=x&tenant=" + strings.Repeat("a", 65), 100},
		{"q=%zz&q=x;k=3", 100},
		// A cap below the default k: Limit must still respect it.
		{"q=x", 5},
	} {
		f.Add(seed.raw, seed.maxK)
	}
	f.Fuzz(func(t *testing.T, raw string, maxK int) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/search", RawQuery: raw}}
		q, msg, ok := ParseQuery(r, maxK)
		if !ok {
			if msg == "" {
				t.Fatalf("%q refused without a message", raw)
			}
			return
		}
		limit := maxK
		if limit <= 0 {
			limit = 100
		}
		w := q.Weights
		switch {
		case q.Text == "":
			t.Fatalf("%q: empty text accepted", raw)
		case q.Limit < 1 || q.Limit > limit:
			t.Fatalf("%q (cap %d): limit %d", raw, maxK, q.Limit)
		case len(q.Tenant) > 64:
			t.Fatalf("%q: %d-byte tenant accepted", raw, len(q.Tenant))
		case w.Cosine == 0 && w.Confidence == 0 && w.Authority == 0:
			t.Fatalf("%q: all weights zero", raw)
		}
		for _, v := range []float64{w.Cosine, w.Confidence, w.Authority} {
			if !(v >= 0) || math.IsInf(v, 0) {
				t.Fatalf("%q: weight %v accepted", raw, v)
			}
		}
	})
}
