package features

import "github.com/bingo-search/bingo/internal/textproc"

// Space identifies a feature-space construction (§3.4). Combined spaces are
// built by merging the component vectors with namespaced feature keys, so the
// classifier "does not have to know how feature vectors are constructed".
type Space int

const (
	// SpaceTerms is the traditional single-term bag-of-words space.
	SpaceTerms Space = iota
	// SpacePairs adds term-pair co-occurrence features from a sliding window.
	SpacePairs
	// SpaceAnchors adds anchor texts of incoming links (predecessor pages).
	SpaceAnchors
	// SpaceNeighbors adds the most significant terms of neighbour documents.
	SpaceNeighbors
	// SpaceCombined merges terms + pairs + anchors.
	SpaceCombined
)

// String names the space for reports.
func (s Space) String() string {
	switch s {
	case SpaceTerms:
		return "terms"
	case SpacePairs:
		return "terms+pairs"
	case SpaceAnchors:
		return "terms+anchors"
	case SpaceNeighbors:
		return "terms+neighbors"
	case SpaceCombined:
		return "combined"
	}
	return "unknown"
}

// AllSpaces lists every feature space BINGO! can train a classifier on.
var AllSpaces = []Space{SpaceTerms, SpacePairs, SpaceAnchors, SpaceNeighbors, SpaceCombined}

const (
	// PairPrefix namespaces term-pair features.
	PairPrefix = "p:"
	// AnchorPrefix namespaces anchor-text features.
	AnchorPrefix = "a:"
	// NeighborPrefix namespaces neighbour-document features.
	NeighborPrefix = "n:"
)

// PairWindow is the sliding-window width for term-pair extraction. The paper
// extracts "only pairs within a limited word distance".
const PairWindow = 5

// MaxNeighborTerms caps how many significant terms per neighbour document are
// merged in (the approach "may dilute the feature space", §3.4, so it is
// combined with conservative feature selection).
const MaxNeighborTerms = 10

// TermPairs extracts windowed term-pair counts from a stem sequence. Pairs
// are order-normalized (alphabetical) so "web search" and "search web" map to
// the same feature, and are namespaced with PairPrefix.
func TermPairs(stems []string, window int) map[string]int {
	if window <= 0 {
		window = PairWindow
	}
	pairs := make(map[string]int)
	for i, a := range stems {
		end := i + window
		if end > len(stems) {
			end = len(stems)
		}
		for j := i + 1; j < end; j++ {
			b := stems[j]
			if a == b {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			pairs[PairPrefix+lo+"+"+hi]++
		}
	}
	return pairs
}

// AnchorTerms converts the anchor texts of incoming hyperlinks into
// namespaced counts using the extended anchor stopword list.
func AnchorTerms(anchors []string, pipe *textproc.Pipeline) map[string]int {
	if pipe == nil {
		pipe = textproc.NewAnchorPipeline()
	}
	counts := make(map[string]int)
	for _, a := range anchors {
		for _, s := range pipe.Stems(a) {
			counts[AnchorPrefix+s]++
		}
	}
	return counts
}

// NeighborTerms merges the top significant terms of neighbour documents
// (predecessors and successors in the hyperlink graph) into namespaced
// counts. neighbours maps a neighbour id to its term counts; the per-document
// contribution is capped at MaxNeighborTerms terms ranked by tf.
func NeighborTerms(neighbors []map[string]int) map[string]int {
	out := make(map[string]int)
	for _, nb := range neighbors {
		top := make([]kv, 0, len(nb))
		for k, v := range nb {
			top = append(top, kv{k, v})
		}
		// partial selection: simple sort is fine at these sizes
		sortKV(top)
		limit := MaxNeighborTerms
		if limit > len(top) {
			limit = len(top)
		}
		for _, e := range top[:limit] {
			out[NeighborPrefix+e.k] += e.v
		}
	}
	return out
}

type kv struct {
	k string
	v int
}

func sortKV(s []kv) {
	// insertion sort by v desc, k asc — inputs are small
	for i := 1; i < len(s); i++ {
		for j := i; j > 0; j-- {
			if s[j].v > s[j-1].v || (s[j].v == s[j-1].v && s[j].k < s[j-1].k) {
				s[j], s[j-1] = s[j-1], s[j]
			} else {
				break
			}
		}
	}
}

// DocInput is the raw material for building one document's feature counts in
// any space: its stem sequence, the anchor texts of links pointing to it, and
// the term counts of its hyperlink neighbours.
type DocInput struct {
	Stems     []string
	Anchors   []string
	Neighbors []map[string]int
}

// Build constructs the term-count map for the document in the given space.
// Single-term counts are always included; richer spaces add namespaced
// features on top.
func Build(in DocInput, space Space, anchorPipe *textproc.Pipeline) map[string]int {
	counts := make(map[string]int, len(in.Stems))
	for _, s := range in.Stems {
		counts[s]++
	}
	addPairs := func() {
		for k, v := range TermPairs(in.Stems, PairWindow) {
			counts[k] = v
		}
	}
	addAnchors := func() {
		for k, v := range AnchorTerms(in.Anchors, anchorPipe) {
			counts[k] = v
		}
	}
	addNeighbors := func() {
		for k, v := range NeighborTerms(in.Neighbors) {
			counts[k] = v
		}
	}
	switch space {
	case SpaceTerms:
	case SpacePairs:
		addPairs()
	case SpaceAnchors:
		addAnchors()
	case SpaceNeighbors:
		addNeighbors()
	case SpaceCombined:
		addPairs()
		addAnchors()
	}
	return counts
}
