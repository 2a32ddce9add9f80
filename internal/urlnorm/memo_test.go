package urlnorm_test

import (
	"testing"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/urlnorm"
)

// TestMemoMatchesNormalize: every absolute href of the tiny world's pages
// normalizes through the memo exactly as Normalize does, once as the memo
// fills and once warm, and each call counts one lookup.
func TestMemoMatchesNormalize(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	var hrefs []string
	collect := func(_, href string) (string, bool) {
		if urlnorm.Cacheable(href) {
			hrefs = append(hrefs, href)
		}
		return href, true
	}
	for _, pg := range w.Pages {
		htmldoc.Convert(pg.ContentType, pg.Body, collect)
	}
	if len(hrefs) == 0 {
		t.Fatal("the tiny world has no absolute hrefs")
	}
	lookups := metrics.NewCounter("memo_url_lookups_total")
	before := lookups.Value()
	for pass := 0; pass < 2; pass++ {
		for _, href := range hrefs {
			want, err := urlnorm.Normalize(href)
			got, ok := urlnorm.NormalizeCached(href)
			if ok != (err == nil) || ok && got != want {
				t.Fatalf("pass %d: NormalizeCached(%q) = %q, %v; Normalize = %q, %v", pass, href, got, ok, want, err)
			}
		}
	}
	if n := lookups.Value() - before; n != int64(2*len(hrefs)) {
		t.Fatalf("%d NormalizeCached calls counted %d lookups", 2*len(hrefs), n)
	}
}
