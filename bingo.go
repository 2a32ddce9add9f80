// Package bingo is the public API of the BINGO! focused crawler — a Go
// implementation of "The BINGO! System for Information Portal Generation
// and Expert Web Search" (Sizov et al., CIDR 2003).
//
// BINGO! interleaves crawling, automatic SVM classification, Mutual-
// Information feature selection, HITS link analysis and result
// postprocessing. A crawl starts from a user-provided set of bookmark
// seeds, runs a sharp-focus learning phase that promotes topic "archetypes"
// to training data and retrains the classifier, and then switches to a
// soft-focus harvesting phase aimed at recall. The crawl result is a local
// document database with a built-in search engine and cluster analysis.
//
// Basic use:
//
//	eng, err := bingo.NewEngine(bingo.Config{
//		Topics: []bingo.TopicSpec{{
//			Path:  []string{"databases"},
//			Seeds: []string{"http://cs00.databases.example/~author0000/index.html"},
//		}},
//		OthersURLs: othersURLs, // common-sense negative examples
//		Transport:  transport,  // http.RoundTripper serving the Web
//	})
//	...
//	learnStats, harvestStats, err := eng.Run(ctx)
//	hits := eng.Search().Search(bingo.SearchQuery{Text: "source code release"})
//
// The companion synthetic-web generator (GenerateWorld) reproduces the
// paper's experimental conditions without network access and provides exact
// ground truth for recall/precision evaluation.
package bingo

import (
	"io"

	"github.com/bingo-search/bingo/internal/bookmarks"
	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/cluster"
	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/svm"
)

// Engine is one focused-crawl session (bootstrap → learn → harvest).
type Engine = core.Engine

// Config assembles an engine; zero fields fall back to the paper's §5.1
// experiment tuning (15 crawl threads, 2 connections per host, 5 per
// domain, 3 retries, tunnel depth 2, 30k-entry topic queues, top-2000 MI
// features).
type Config = core.Config

// TopicSpec declares one topic of interest with its bookmark seeds.
type TopicSpec = core.TopicSpec

// DNSServerSpec backs the resolver simulation with a host table.
type DNSServerSpec = core.DNSServerSpec

// CrawlStats are the per-phase crawl counters (the paper's Table 1 rows).
type CrawlStats = crawler.Stats

// Document is one row of the crawl database.
type Document = store.Document

// Store is the embedded crawl database.
type Store = store.Store

// SearchEngine is the local result-postprocessing search engine (§3.6).
type SearchEngine = search.Engine

// SearchQuery is a keyword query with exact/vague filtering, topic scoping
// and combinable rankings.
type SearchQuery = search.Query

// SearchHit is one ranked search result.
type SearchHit = search.Hit

// RankWeights combines cosine, classifier-confidence and HITS-authority
// rankings into a linear sum.
type RankWeights = search.Weights

// ClusterResult is the outcome of the §3.6 cluster analysis.
type ClusterResult = cluster.Result

// TopicTree is the topic hierarchy (ontology) of a crawl.
type TopicTree = classify.Tree

// MetaMode selects the meta-classifier combination function (§3.5).
type MetaMode = classify.MetaMode

// Meta-classifier modes.
const (
	MetaBestSingle = classify.MetaBestSingle
	MetaUnanimous  = classify.MetaUnanimous
	MetaMajority   = classify.MetaMajority
	MetaWeighted   = classify.MetaWeighted
)

// FeatureSpace selects a §3.4 feature-space construction.
type FeatureSpace = features.Space

// Feature spaces.
const (
	SpaceTerms     = features.SpaceTerms
	SpacePairs     = features.SpacePairs
	SpaceAnchors   = features.SpaceAnchors
	SpaceNeighbors = features.SpaceNeighbors
	SpaceCombined  = features.SpaceCombined
)

// SVMParams tunes the per-node linear SVM training.
type SVMParams = svm.Params

// ArchetypeCandidate is one proposed archetype shown to the §2.6 user
// feedback step (Config.ReviewArchetypes).
type ArchetypeCandidate = core.ArchetypeCandidate

// Tenant is one portal hosted by an Engine: its own topic tree, training
// set, classifier ensemble and crawl frontier over the engine's shared
// crawl database (multi-portal tenancy — see DESIGN.md).
type Tenant = core.Tenant

// TenantStats is one tenant's operational snapshot for the admin plane.
type TenantStats = core.TenantStats

// ValidateTenantID checks a tenant id against the allowed charset
// (1-64 characters from [A-Za-z0-9._-]).
func ValidateTenantID(id string) error { return core.ValidateTenantID(id) }

// NewEngine builds a focused-crawl engine from cfg.
func NewEngine(cfg Config) (*Engine, error) { return core.New(cfg) }

// LoadSession reopens the session Engine.SaveSession left in cfg.DataDir:
// the crawl database is the tiered store there, the training set, frontier
// and lifecycle counters are restored, the classifier is retrained, and the
// duplicate detector is primed so a resumed harvest does not refetch stored
// pages.
func LoadSession(cfg Config) (*Engine, error) { return core.LoadSession(cfg) }

// DefaultConfig returns cfg with every zero field replaced by the paper's
// §5.1 defaults (useful for inspecting the effective tuning).
func DefaultConfig(cfg Config) Config { return cfg.WithDefaults() }

// ParseBookmarks reads a Netscape-format bookmark file — the classic input
// a BINGO! crawl starts from (§2) — turning folders into topic paths and
// bookmarks into seeds.
func ParseBookmarks(r io.Reader) ([]TopicSpec, error) {
	topics, err := bookmarks.ParseNetscape(r)
	return toSpecs(topics), err
}

// ParseTopicFile reads the plain-text seed format: one
// "topic/subtopic URL" line per bookmark, '#' comments allowed.
func ParseTopicFile(r io.Reader) ([]TopicSpec, error) {
	topics, err := bookmarks.ParseText(r)
	return toSpecs(topics), err
}

func toSpecs(topics []bookmarks.Topic) []TopicSpec {
	out := make([]TopicSpec, 0, len(topics))
	for _, t := range topics {
		out = append(out, TopicSpec{Path: t.Path, Seeds: t.Seeds})
	}
	return out
}
