// Package search implements BINGO!'s local search engine for result
// postprocessing (§3.6). It supports exact and vague keyword filtering over
// user-selectable classes of the topic hierarchy, with relevance rankings by
// cosine similarity of tf·idf vectors, by the classifier's confidence in the
// class assignment, and by HITS authority scores — and any weighted linear
// combination of the three, the knob the paper exposes for trial-and-error
// experimentation by a human expert.
//
// Queries are served index-natively from an immutable snapshot (see
// snapshot.go): per-document tf·idf norms, confidence, topic, and URL are
// precomputed once per store epoch, scoring accumulates term-at-a-time from
// the snapshot's own postings into dense per-DocID arrays, and result
// selection uses a bounded top-K heap. Query analysis and query-side
// weights come from the same Planner (distrib.go) a coordinator uses, so
// the single-process and the distributed path share one definition of a
// query.
package search

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/metrics"
	"github.com/bingo-search/bingo/internal/store"
)

// Process-wide search metrics: query traffic and latency, snapshot churn
// (rebuilds vs stale serves — the freshness/latency trade the snapshot
// design makes), and result-set sizes.
var (
	mQueries        = metrics.NewCounter("search_queries_total")
	mQueryNanos     = metrics.NewHistogram("search_query_nanos")
	mSnapRebuilds   = metrics.NewCounter("search_snapshot_rebuilds_total")
	mSnapBuildNanos = metrics.NewHistogram("search_snapshot_build_nanos")
	mStaleServes    = metrics.NewCounter("search_stale_serves_total")
	mTopKHeap       = metrics.NewHistogram("search_topk_heap_size")
)

// Weights combines the ranking schemes into a linear sum. Zero-valued
// weights disable the corresponding scheme; the default is pure cosine.
// The JSON tags are part of the distributed query plan's wire schema
// (see Plan and DESIGN.md "Distributed scatter-gather").
type Weights struct {
	Cosine     float64 `json:"cosine"`
	Confidence float64 `json:"confidence"`
	Authority  float64 `json:"authority"`
}

// DefaultWeights ranks purely by cosine similarity.
func DefaultWeights() Weights { return Weights{Cosine: 1} }

// Query is one search request.
type Query struct {
	// Text holds the query keywords. Substrings in double quotes are
	// treated as phrases: a matching document must contain the phrase's
	// stems consecutively (e.g. `aries "source code release"`).
	Text string
	// Topic restricts results to documents whose assigned topic equals the
	// path or lies in its subtree ("" = all topics, including OTHERS).
	Topic string
	// Tenant restricts results to one portal's documents. "" is the default
	// tenant — the only tenant a pre-tenancy store has, so existing callers
	// see exactly the results they always did.
	Tenant string
	// Exact requires every query term to occur in a document; otherwise any
	// matching term qualifies a document (vague filtering).
	Exact bool
	// Weights is the ranking combination (DefaultWeights if zero).
	Weights Weights
	// Limit caps the result list (0 = 10, the classic top-N).
	Limit int
}

// Hit is one ranked result. Doc is the search snapshot's row — identity,
// URL, title, topic, confidence and crawl metadata — and never the payload:
// Doc.Text is "" and Doc.Terms is nil for every hit, whichever tier the
// document lives in. A caller that renders the body reads it with
// store.DocText(Doc.ID), for the rows it renders.
type Hit struct {
	Doc   store.Document
	Score float64
	// Components records the individual normalized ranking scores.
	Cosine     float64
	Confidence float64
	Authority  float64
}

// Engine answers queries over a crawl database. Its derived state — the
// search view — is cached and invalidated on the store's per-shard mutation
// epochs, so any write (including a delete followed by an insert that
// leaves the document count unchanged) refreshes it.
type Engine struct {
	store   *store.Store
	planner *Planner

	// view is the current immutable search view (one snapshot per store
	// shard plus the merged idf layer); buildMu singleflights rebuilds
	// (see Engine.snapshot).
	view    atomic.Pointer[searchView]
	buildMu sync.Mutex
	// scratch pools per-query scoring state (dense accumulators, candidate
	// list, top-K heap) so the scoring loop allocates nothing.
	scratch sync.Pool
}

// New builds a search engine over s.
func New(s *store.Store) *Engine {
	e := &Engine{store: s, planner: NewPlanner()}
	e.scratch.New = func() any { return newScoreScratch() }
	return e
}

// Search runs q and returns the ranked hits. Answering reads the resident
// snapshot only (a phrase filter may read a cold body once per document
// for its stem cache); hits carry no body text or term vector (see Hit) —
// store.DocText is the way to a hit's body.
func (e *Engine) Search(q Query) []Hit {
	hits, _ := e.search(q)
	return hits
}

// SearchWithEpochs runs q like Search and additionally returns the
// per-shard store epoch vector of the search view that answered it — the
// provenance a result cache needs to be correct by construction: an entry
// stored under the served epochs can only be returned to a request that
// observed exactly those epochs, so no explicit invalidation is ever
// needed. The returned slice is shared with the engine's immutable view
// and must not be modified. Epochs is nil when the query has no indexable
// stems (the result is the empty list for every epoch).
func (e *Engine) SearchWithEpochs(q Query) ([]Hit, []int64) {
	return e.search(q)
}

// search plans q against the current view's idf table — the same Planner a
// coordinator runs against the merged global table — and replays the plan
// over the local shards: pass-1 scatter, order-independent reduction of the
// component maxima, pass-2 into bounded per-shard top-K heaps, and the
// deterministic heap merge. For non-phrase queries on a single-shard store
// everything between getScratch and putScratch performs zero allocations
// once the pooled scratch is warm (phrase queries may fill the snap's lazy
// stem cache; the parallel scatter allocates its goroutines).
func (e *Engine) search(q Query) ([]Hit, []int64) {
	plan, qtf := e.planner.analyze(q)
	if plan == nil {
		return nil, nil
	}
	mQueries.Inc()
	start := time.Now()
	defer mQueryNanos.ObserveSince(start)

	v := e.snapshot()
	plan.weigh(qtf, v.idf)
	var auth [][]float64
	if plan.Weights.Authority != 0 {
		auth = v.authorityScores(e.store)
	}
	qs := e.getScratch(v)
	defer e.putScratch(qs)
	fillPlan(qs, plan, auth)
	e.scatterAll(qs)
	maxCos, maxConf, maxAuth, _, survivors := reduceScatter(qs)
	if survivors == 0 {
		return nil, v.epochs
	}
	e.passTwo(qs, plan.Limit, maxCos, maxConf, maxAuth)
	return gatherHits(qs, plan.Limit, maxCos, maxConf, maxAuth), v.epochs
}

// splitPhrases extracts double-quoted phrases from a query string and
// returns the remaining free text plus the phrase list. An unbalanced quote
// opens a phrase running to the end of the string.
func splitPhrases(text string) (free string, phrases []string) {
	var freeB strings.Builder
	for {
		open := strings.IndexByte(text, '"')
		if open < 0 {
			freeB.WriteString(text)
			break
		}
		freeB.WriteString(text[:open])
		rest := text[open+1:]
		close := strings.IndexByte(rest, '"')
		if close < 0 {
			if strings.TrimSpace(rest) != "" {
				phrases = append(phrases, rest)
			}
			break
		}
		if p := strings.TrimSpace(rest[:close]); p != "" {
			phrases = append(phrases, p)
		}
		text = rest[close+1:]
		freeB.WriteByte(' ')
	}
	return freeB.String(), phrases
}

func containsSeq(haystack, needle []string) bool {
	if len(needle) == 0 {
		return true
	}
	if len(needle) > len(haystack) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, w := range needle {
			if haystack[i+j] != w {
				continue outer
			}
		}
		return true
	}
	return false
}
