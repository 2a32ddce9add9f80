// Package corpus generates the deterministic synthetic Web that replaces the
// live 2002 Web of the paper's experiments. The generated world contains:
//
//   - topic-conditioned documents built from Zipf-sampled per-topic
//     vocabularies mixed with common-sense vocabulary,
//   - a researcher community for the primary topic with a DBLP-analog ground
//     truth (authors ranked by publication count, homepages with publication
//     lists and SPDF papers underneath, §5.2),
//   - department "welcome" pages with generic text (the tunnelling obstacle
//     of §3.3), conference hub pages pointing at many author homepages (the
//     hub/authority structure HITS expects, §2.5),
//   - a general-interest Web (sports, entertainment, ...) that provides both
//     the OTHERS training documents (§3.1) and off-topic territory where an
//     unfocused crawler wastes its budget,
//   - a small "needle-in-a-haystack" expert community about the ARIES
//     recovery algorithm with two hard-to-find open-source project pages
//     (§5.3).
//
// The world is served in-process through an http.RoundTripper, so the
// production fetcher runs unchanged against it, and exposes a DNS table for
// the resolver simulation.
package corpus

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/bingo-search/bingo/internal/search"
)

// Config sizes the synthetic world. The zero value is unusable; start from
// DefaultConfig or TinyConfig.
type Config struct {
	Seed int64
	// Topics are the thematic communities; index 0 is the primary topic
	// that carries the researcher/DBLP ground truth.
	Topics []string
	// PrimarySubtopics, when non-empty, splits the primary topic's
	// researcher community into named subcommunities with distinct
	// sub-vocabularies (e.g. "systems" vs "mining"), giving the two-level
	// topic tree of the paper's Figure 2 a ground truth to classify
	// against.
	PrimarySubtopics []string
	// AuthorsPrimary is the number of researchers in the primary topic.
	AuthorsPrimary int
	// HostsPerTopic is the number of department hosts per topic.
	HostsPerTopic int
	// ConferencesPerTopic is the number of conference hub hosts per topic.
	ConferencesPerTopic int
	// GeneralHosts is the number of general-interest hosts.
	GeneralHosts int
	// PagesPerGeneralHost is the page count per general host.
	PagesPerGeneralHost int
	// VocabTopic / VocabCommon size the vocabularies.
	VocabTopic  int
	VocabCommon int
	// WithExpertCommunity adds the ARIES needle-in-a-haystack world.
	WithExpertCommunity bool
	// WithTrap adds a crawler trap: trap.example serves an unbounded
	// calendar-style URL space generated on the fly, with entry links from
	// a few general pages. The §4.2 defenses (queue caps, URL limits,
	// priority decay) must keep the crawl from drowning in it.
	WithTrap bool
}

// DefaultConfig is the experiment-scale world (roughly 10k pages).
func DefaultConfig() Config {
	return Config{
		Seed:                2003,
		Topics:              []string{"databases", "biology", "physics"},
		AuthorsPrimary:      1200,
		HostsPerTopic:       30,
		ConferencesPerTopic: 6,
		GeneralHosts:        40,
		PagesPerGeneralHost: 25,
		VocabTopic:          250,
		VocabCommon:         600,
		WithExpertCommunity: true,
	}
}

// SmallConfig is a mid-size world for experiment harness runs that should
// finish in seconds (roughly 2k pages, 300 authors).
func SmallConfig() Config {
	return Config{
		Seed:                2003,
		Topics:              []string{"databases", "biology", "physics"},
		AuthorsPrimary:      300,
		HostsPerTopic:       10,
		ConferencesPerTopic: 3,
		GeneralHosts:        15,
		PagesPerGeneralHost: 12,
		VocabTopic:          150,
		VocabCommon:         400,
		WithExpertCommunity: true,
	}
}

// HierarchicalConfig is SmallConfig with the primary topic split into two
// subcommunities, for experiments over a two-level topic tree (Figure 2).
func HierarchicalConfig() Config {
	c := SmallConfig()
	c.PrimarySubtopics = []string{"systems", "mining"}
	return c
}

// ConfigByName returns the world size the CLIs' -world flag names: tiny,
// small or default.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "tiny":
		return TinyConfig(), nil
	case "small":
		return SmallConfig(), nil
	case "default":
		return DefaultConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown world %q", name)
}

// TinyConfig is a fast world for unit tests (a few hundred pages).
func TinyConfig() Config {
	return Config{
		Seed:                7,
		Topics:              []string{"databases", "biology"},
		AuthorsPrimary:      40,
		HostsPerTopic:       4,
		ConferencesPerTopic: 2,
		GeneralHosts:        6,
		PagesPerGeneralHost: 6,
		VocabTopic:          80,
		VocabCommon:         200,
		WithExpertCommunity: true,
	}
}

// Page is one generated resource.
type Page struct {
	URL         string
	Host        string
	ContentType string
	Body        []byte
	// Topic is the ground-truth topic index (-1 for general pages).
	Topic int
	// Kind tags the page's role in the world.
	Kind PageKind
	// header is the precomputed response header the in-process transport
	// serves (read-only; building one per request shows up in crawl
	// benchmarks as pure harness overhead).
	header http.Header
}

// PageKind enumerates the structural roles of generated pages.
type PageKind int

// Page roles.
const (
	KindAuthorHome PageKind = iota
	KindAuthorPubs
	KindPaper
	KindDeptHome
	KindProject
	KindConference
	KindGeneral
	KindExpert
	KindExpertNeedle
)

// Author is one researcher in the DBLP-analog ground truth.
type Author struct {
	// Name is the synthetic author id, e.g. "author0042".
	Name string
	// Pubs is the publication count used for the DBLP-style ranking.
	Pubs int
	// HomeURL is the homepage; HomePrefix is the URL prefix "underneath"
	// which any stored page counts as having found the author (§5.2).
	HomeURL    string
	HomePrefix string
	// Subtopic indexes Config.PrimarySubtopics (-1 when none configured).
	Subtopic int
}

// World is a fully generated synthetic Web.
type World struct {
	cfg     Config
	Pages   map[string]*Page
	hostIPs map[string]string
	// Authors are sorted by descending publication count (the DBLP-style
	// ranking of §5.2).
	Authors []Author

	seedURLs       []string
	expertSeeds    []string
	needleURLs     []string
	generalPages   []string
	conferencePage []string

	topicVocab  [][]string
	subVocab    [][]string // per primary subtopic
	commonVocab []string

	// reference search engine over the full world, built lazily.
	refOnce   sync.Once
	refEngine *search.Engine
}

// Generate builds the world deterministically from cfg.
func Generate(cfg Config) *World {
	if len(cfg.Topics) == 0 {
		cfg.Topics = []string{"databases"}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{
		cfg:     cfg,
		Pages:   make(map[string]*Page),
		hostIPs: make(map[string]string),
	}
	w.buildVocabularies(rng)
	w.buildGeneralWeb(rng)
	depts := w.buildDepartments(rng)
	w.buildAuthors(rng, depts)
	w.buildConferences(rng)
	w.linkDepartments(rng, depts)
	if cfg.WithExpertCommunity {
		w.buildExpertCommunity(rng, depts)
	}
	if cfg.WithTrap {
		w.buildTrapEntrances(rng)
	}
	return w
}

// TrapHost is the hostname of the dynamic crawler trap (see Config.WithTrap).
const TrapHost = "trap.example"

// buildTrapEntrances registers the trap host and links it from a few
// general pages; the trap pages themselves are synthesized by the transport.
func (w *World) buildTrapEntrances(rng *rand.Rand) {
	w.registerHost(TrapHost)
	entry := urlOf(TrapHost, "/cal/2003/01/01")
	for i := 0; i < 10 && i < len(w.generalPages); i++ {
		p := w.Pages[w.generalPages[rng.Intn(len(w.generalPages))]]
		body := string(p.Body)
		body = strings.Replace(body, "</body>",
			"<a href=\""+entry+"\">event calendar</a>\n</body>", 1)
		p.Body = []byte(body)
	}
}

// NumPages returns the total page count.
func (w *World) NumPages() int { return len(w.Pages) }

// Hosts returns all hostnames, sorted.
func (w *World) Hosts() []string {
	out := make([]string, 0, len(w.hostIPs))
	for h := range w.hostIPs {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// SeedURLs returns the portal-generation seeds: the homepages of the two
// most-published primary-topic researchers (the "DeWitt and Gray" of the
// synthetic world).
func (w *World) SeedURLs() []string { return w.seedURLs }

// ExpertSeedURLs returns the §5.3-style training documents for the expert
// search: a handful of ARIES tutorial/lecture pages (like the paper's
// Figure 4 list).
func (w *World) ExpertSeedURLs() []string { return w.expertSeeds }

// NeedleURLs returns the open-source project pages the expert search must
// surface (the paper's Shore/MiniBase analogs).
func (w *World) NeedleURLs() []string { return w.needleURLs }

// GeneralPageURLs returns n general-interest page URLs usable as OTHERS
// training documents (the Yahoo-category stand-in of §3.1).
func (w *World) GeneralPageURLs(n int) []string {
	if n > len(w.generalPages) {
		n = len(w.generalPages)
	}
	return w.generalPages[:n]
}

// Topics returns the configured topic names.
func (w *World) Topics() []string { return w.cfg.Topics }

// registerHost assigns a deterministic fake IP.
func (w *World) registerHost(host string) {
	if _, ok := w.hostIPs[host]; ok {
		return
	}
	n := len(w.hostIPs)
	w.hostIPs[host] = fmt.Sprintf("10.%d.%d.%d", (n/65025)%255, (n/255)%255, n%255+1)
}

// addPage stores a page and registers its host.
func (w *World) addPage(p *Page) {
	w.registerHost(p.Host)
	p.header = http.Header{
		"Content-Type":   {p.ContentType},
		"Content-Length": {strconv.Itoa(len(p.Body))},
	}
	w.Pages[p.URL] = p
}

// urlOf joins host and path into an absolute URL.
func urlOf(host, path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return "http://" + host + path
}
