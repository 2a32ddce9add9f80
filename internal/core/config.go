// Package core is the BINGO! engine: it wires crawler, classifier, feature
// selection, link analysis and storage into the two-phase focused-crawl
// lifecycle of the paper — bootstrap from bookmarks, a sharp-focus
// depth-first learning crawl that promotes archetypes and retrains the
// classifier, then a soft-focus prioritized harvesting crawl (§2.6, §3).
package core

import (
	"net/http"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/svm"
)

// TopicSpec declares one topic of interest with its bookmark seeds.
type TopicSpec struct {
	// Path locates the topic in the tree, e.g. ["mathematics","algebra"].
	Path []string
	// Seeds are the intellectually chosen bookmark URLs: initial crawl
	// frontier and initial training data at once (§2).
	Seeds []string
}

// Crawl tuning no deployment varies: the paper's values and the fetch
// layer's resilience policy. robots.txt is always honoured, and a body cut
// mid-read on the final attempt is always stored and classified with a
// confidence penalty instead of dropped.
const (
	// maxRetries failures tag a host bad (paper §5.1: 3).
	maxRetries = 3
	// fetchAttempts is the per-URL retry budget: each fetch makes up to
	// this many attempts with capped, jittered backoff between them.
	fetchAttempts = 3
	// retryBaseDelay / retryMaxDelay bound one backoff sleep.
	retryBaseDelay = 100 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
	// queueLimit caps each topic's incoming URL queue (paper §5.1: 30,000).
	queueLimit = 30000
)

// Config assembles an engine. Zero fields fall back to the paper's §5.1
// experiment tuning.
type Config struct {
	// Topics is the user's topic directory with seeds.
	Topics []TopicSpec
	// OthersURLs populate the virtual OTHERS class with common-sense
	// vocabulary (§3.1; the paper used ~50 Yahoo top-category documents).
	OthersURLs []string

	// Transport serves HTTP (the synthetic web's RoundTripper in
	// experiments, http.DefaultTransport for the real network).
	Transport http.RoundTripper
	// DNSServers back the resolver simulation (paper: 5 servers).
	DNSServers []DNSServerSpec
	// LockedDomains are excluded from crawling (search engines, DBLP
	// mirrors in the §5.2 evaluation).
	LockedDomains []string

	// Workers is the crawler thread count (paper: 15).
	Workers int
	// MaxPerHost / MaxPerDomain are the politeness caps (paper: 2 / 5).
	MaxPerHost   int
	MaxPerDomain int
	// DNSMiddleware, when non-nil, wraps each name server as it is built
	// (index 0 = primary). The chaos harness uses it to splice the fault
	// plane into the DNS simulation.
	DNSMiddleware func(index int, s dns.Server) dns.Server
	// PerHostDelay enforces a minimum interval between consecutive requests
	// to one host (0 = disabled).
	PerHostDelay time.Duration
	// MaxTunnelDepth is the tunnelling threshold (paper: 2).
	MaxTunnelDepth int
	// LearnDepth bounds the learning-phase crawl depth (paper §5.2: 4).
	LearnDepth int
	// Scheduler selects the score the frontier's §4.2 queue manager orders
	// links by: fifo-priority (default, the paper's decayed confidence) or
	// link-context (confidence blended with anchor/URL topicality). See
	// DESIGN.md "Frontier scheduling".
	Scheduler string
	// FrontierBudget, when positive, caps the number of queued frontier
	// links held in memory; the lowest-priority tail spills to sorted
	// on-disk runs (under DataDir when set, else the OS temp dir) and is
	// merged back as the head drains. 0 keeps the whole frontier in memory.
	FrontierBudget int
	// FetchTimeout bounds one retrieval.
	FetchTimeout time.Duration
	// BatchSize is the per-worker workspace bulk-load batch (§4.1;
	// default 32 documents, each flushed with its links and redirects).
	BatchSize int
	// FlushInterval bounds how long a crawl worker may hold a partially
	// filled workspace before flushing it (default 200ms).
	FlushInterval time.Duration
	// StoreShards is the number of document partitions in the crawl
	// database (default 8, rounded down to a power of two, max 64).
	// Workers flush to the shards their documents route to, and search
	// rebuilds only the shards that changed; results are identical for
	// every shard count.
	StoreShards int
	// Sink, when non-nil, is attached to the crawl database before its
	// first write and flushed at the end of each crawl phase, so it gets a
	// copy of every stored row, the bootstrap seeds' included: the hook a
	// distributed deployment mirrors the crawl into remote shard servers
	// with, through the coordinator's ingest router (store.Sink).
	Sink store.Sink

	// DataDir, when set, opens the crawl database as a disk-backed tiered
	// store rooted at this directory: crawled documents are WAL-logged at
	// flush time and frozen into compressed immutable segments, so the
	// corpus can exceed RAM and a restart recovers everything acknowledged
	// before the crash. It is also where SaveSession and LoadSession keep
	// the resumable session. Empty keeps the store purely in memory.
	DataDir string
	// MemtableBudget bounds the bytes of hot (in-memory) document payload
	// across the store; a shard freezes its hot documents into a segment
	// when they reach its share, MemtableBudget ÷ shards (tiered store
	// only; default 64 MiB).
	MemtableBudget int64
	// WALSync fsyncs the write-ahead log at every crawl flush; off, the
	// log is synced only when segments are written (tiered store only).
	WALSync bool
	// CompactFanout is the segment merge fanout: a run of this many
	// segments of one tier, a segment's tier being the log of the freezes
	// it holds, is merged into one (tiered store only; default 4).
	CompactFanout int

	// LearnBudget / HarvestBudget are page-visit budgets per phase (the
	// stand-in for the paper's wall-clock crawl durations).
	LearnBudget   int64
	HarvestBudget int64
	// RetrainEvery triggers intermediate archetype selection + retraining
	// during the learning phase each time this many documents have been
	// positively classified with confidence above RetrainConfidence
	// (§2.6: "BINGO! repeatedly initiates re-training of the classifier").
	// 0 retrains only once, at the end of the learning phase.
	RetrainEvery int
	// RetrainConfidence is the confidence threshold a positive
	// classification must exceed to count towards RetrainEvery.
	RetrainConfidence float64

	// NAuth / NConf are the per-topic archetype candidate counts from link
	// analysis and SVM confidence (§3.2); at most min(NAuth, NConf) new
	// archetypes are promoted per topic and retraining round.
	NAuth int
	NConf int
	// EnforceArchetypeGate requires an archetype's confidence to exceed the
	// mean confidence of the current training documents (§3.2). The §5.2
	// experiment disabled it because the seed set was extremely small.
	EnforceArchetypeGate bool
	// DisableArchetypes skips archetype promotion entirely (ablation knob:
	// the classifier is still retrained after the learning phase, but only
	// on the original seeds).
	DisableArchetypes bool
	// ReviewArchetypes, when non-nil, implements the §2.6 user feedback
	// step between learning and harvesting: it receives each topic's
	// archetype candidates (already gated and capped) and returns the
	// subset the user confirms for promotion to training data. Returning
	// the slice unchanged accepts everything.
	ReviewArchetypes func(topicPath string, candidates []ArchetypeCandidate) []ArchetypeCandidate

	// Spaces are the parallel feature spaces (§3.4); LearnMeta/HarvestMeta
	// are the meta-classifier modes per phase (§3.5 defaults: unanimous
	// while learning, ξα-weighted while harvesting).
	Spaces      []features.Space
	LearnMeta   classify.MetaMode
	HarvestMeta classify.MetaMode
	// FeatureOpts tunes MI selection (paper: best 2000 of top 5000).
	FeatureOpts features.Options
	// SVM tunes the per-node SVM training.
	SVM svm.Params
}

// DNSServerSpec names one resolver backend.
type DNSServerSpec struct {
	// Table maps hostnames to IPs; in experiments this is the synthetic
	// world's table.
	Table map[string]string
}

// WithDefaults fills the paper's defaults into zero fields.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 15
	}
	if c.MaxPerHost <= 0 {
		c.MaxPerHost = 2
	}
	if c.MaxPerDomain <= 0 {
		c.MaxPerDomain = 5
	}
	if c.MaxTunnelDepth == 0 {
		c.MaxTunnelDepth = 2
	}
	if c.LearnDepth <= 0 {
		c.LearnDepth = 4
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 10 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.StoreShards <= 0 {
		c.StoreShards = 8
	}
	if c.LearnBudget <= 0 {
		c.LearnBudget = 500
	}
	if c.HarvestBudget <= 0 {
		c.HarvestBudget = 2000
	}
	if c.NAuth <= 0 {
		c.NAuth = 10
	}
	if c.NConf <= 0 {
		c.NConf = 10
	}
	if len(c.Spaces) == 0 {
		c.Spaces = []features.Space{features.SpaceTerms}
	}
	if c.LearnMeta == 0 && len(c.Spaces) > 1 {
		c.LearnMeta = classify.MetaUnanimous
	}
	if c.HarvestMeta == 0 && len(c.Spaces) > 1 {
		c.HarvestMeta = classify.MetaWeighted
	}
	if c.FeatureOpts.TopK == 0 {
		c.FeatureOpts = features.DefaultOptions()
	}
	if c.SVM.C == 0 {
		c.SVM = svm.DefaultParams()
	}
	return c
}
