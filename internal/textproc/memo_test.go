package textproc_test

import (
	"slices"
	"testing"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/htmldoc"
	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/textproc"
)

// TestMemoMatchesAnalyzer: over every page of the tiny world, the stems
// both pipelines return through their memos are the uncached analyzer's
// decisions token by token, once as the memo fills and once warm. Each
// StemsParts call counts one lookup per token.
func TestMemoMatchesAnalyzer(t *testing.T) {
	w := corpus.Generate(corpus.TinyConfig())
	for _, c := range []struct {
		p       *textproc.Pipeline
		lookups *metrics.Counter
	}{
		{textproc.NewPipeline(), metrics.NewCounter("memo_stem_lookups_total")},
		{textproc.NewAnchorPipeline(), metrics.NewCounter("memo_anchor_stem_lookups_total")},
	} {
		for pass := 0; pass < 2; pass++ {
			for u, pg := range w.Pages {
				doc, err := htmldoc.Convert(pg.ContentType, pg.Body, nil)
				if err != nil {
					continue
				}
				var want []string
				tokens := append(textproc.Tokenize(doc.Title), textproc.Tokenize(doc.Text)...)
				for _, tok := range tokens {
					if s := c.p.AnalyzeWord(tok.Text); s != "" {
						want = append(want, s)
					}
				}
				before := c.lookups.Value()
				got := c.p.StemsParts(doc.Title, doc.Text)
				if !slices.Equal(got, want) {
					t.Fatalf("%s (pass %d): memoized stems differ from the analyzer's:\n got %q\nwant %q", u, pass, got, want)
				}
				if n := c.lookups.Value() - before; n != int64(len(tokens)) {
					t.Fatalf("%s: StemsParts counted %d lookups for %d tokens", u, n, len(tokens))
				}
			}
		}
	}
}
