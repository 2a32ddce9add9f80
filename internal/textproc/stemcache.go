package textproc

import "github.com/bingo-search/bingo/internal/memo"

// The crawler re-analyzes the same Zipfian-heavy vocabulary millions of
// times: a handful of hot words account for most token occurrences, so
// memoizing the analyzer's whole per-word decision — dropped (stopword, or
// stem shorter than two characters; memoized as "") or kept with its
// Porter stem — turns the stopword probe plus stemmer run into a single map
// hit. The decision depends on the stopword configuration, so each
// pipeline flavor has its own process-wide memo.Memo: at most 131,072
// words, nothing reserved. A crawl of the default world holds ≈ 8.4k, and
// the anchor memo stays empty unless anchor feature spaces are built.
var (
	standardStems = memo.New("stem")        // NewPipeline (default stopwords)
	anchorStems   = memo.New("anchor_stem") // NewAnchorPipeline (extended stopwords)
)
