package bingo

import (
	"github.com/bingo-search/bingo/internal/corpus"
)

// World is a deterministic synthetic Web with ground truth: researcher
// homepages ranked by publication count (the DBLP analog of §5.2), topical
// communities, hub/authority link structure, tunnel pages, a general-
// interest Web, and the ARIES needle-in-a-haystack community of §5.3.
type World = corpus.World

// WorldConfig sizes a synthetic world.
type WorldConfig = corpus.Config

// Author is one researcher in the DBLP-analog ground truth.
type Author = corpus.Author

// PortalEval is a recall/precision evaluation against the ground truth.
type PortalEval = corpus.PortalEval

// GenerateWorld builds a synthetic Web deterministically from cfg.
func GenerateWorld(cfg WorldConfig) *World { return corpus.Generate(cfg) }

// TinyWorldConfig is a small, fast world for demos and tests.
func TinyWorldConfig() WorldConfig { return corpus.TinyConfig() }

// EngineForWorld wires a Config to a synthetic world: transport, DNS table
// and OTHERS documents are filled in; the caller supplies Topics and budget
// knobs via mut (may be nil).
func EngineForWorld(w *World, topics []TopicSpec, mut func(*Config)) (*Engine, error) {
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	cfg := Config{
		Topics:     topics,
		OthersURLs: w.GeneralPageURLs(50),
		Transport:  w.RoundTripper(),
		DNSServers: []DNSServerSpec{{Table: table}, {Table: table}, {Table: table}, {Table: table}, {Table: table}},
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewEngine(cfg)
}
