package frontier

import (
	"sort"
	"strings"
)

// linkContextScorer blends parent confidence with the similarity of the
// link's local context — anchor text plus URL tokens — to the target
// topic's feature terms (the PDD / Treasure-Crawler link-relevance idea):
// a mediocre parent pointing at "database-systems/recovery.html" outranks
// the same parent's "my favourite team" link.
type linkContextScorer struct {
	terms func(topic string) map[string]float64
	// blend weighs context similarity against parent confidence.
	blend float64
	// cache holds each topic's feature terms sorted by term; it is
	// invalidated every refresh pushes so classifier retraining (which
	// changes the feature vectors mid-crawl) is picked up without querying
	// the classifier on every push.
	cache   map[string][]termWeight
	pushes  int
	refresh int
}

type termWeight struct {
	term string
	w    float64
}

func newLinkContextScorer(terms func(string) map[string]float64) *linkContextScorer {
	return &linkContextScorer{
		terms:   terms,
		blend:   0.5,
		cache:   make(map[string][]termWeight),
		refresh: 1024,
	}
}

func (s *linkContextScorer) score(it Item, eff float64) float64 {
	if it.IsSeed {
		return eff
	}
	return (1-s.blend)*eff + s.blend*s.similarity(it)
}

func (s *linkContextScorer) similarity(it Item) float64 {
	if s.terms == nil {
		return 0
	}
	s.pushes++
	if s.pushes%s.refresh == 0 {
		clear(s.cache)
	}
	tv, ok := s.cache[it.Topic]
	if !ok {
		tv = sortedTerms(s.terms(it.Topic))
		s.cache[it.Topic] = tv
	}
	if len(tv) == 0 {
		return 0
	}
	toks := contextTokens(it.Anchor, it.URL)
	if len(toks) == 0 {
		return 0
	}
	// Sum each matched feature term's weight once (feature terms are stems,
	// so a term matching a token's prefix counts: "databas" hits
	// "databases"). The sum is over distinct terms, making it independent
	// of token order.
	raw := 0.0
	matched := make(map[string]struct{})
	for _, tok := range toks {
		for _, tw := range tv {
			if _, dup := matched[tw.term]; dup {
				continue
			}
			if tok == tw.term || strings.HasPrefix(tok, tw.term) {
				matched[tw.term] = struct{}{}
				raw += tw.w
			}
		}
	}
	return raw / (1 + raw)
}

func sortedTerms(m map[string]float64) []termWeight {
	tv := make([]termWeight, 0, len(m))
	for t, w := range m {
		if t == "" || w <= 0 {
			continue
		}
		tv = append(tv, termWeight{term: t, w: w})
	}
	sort.Slice(tv, func(i, j int) bool { return tv[i].term < tv[j].term })
	return tv
}

// contextStop drops tokens carrying no topical signal: URL scaffolding and
// generic TLD/host noise.
var contextStop = map[string]struct{}{
	"http": {}, "https": {}, "www": {}, "html": {}, "htm": {},
	"com": {}, "org": {}, "net": {}, "edu": {}, "example": {},
	"index": {}, "page": {}, "the": {}, "and": {}, "for": {},
}

// contextTokens lowercases the anchor text and URL and splits them into
// alphanumeric runs of three or more characters, minus the stoplist.
func contextTokens(anchor, url string) []string {
	var toks []string
	emit := func(s string) {
		var b strings.Builder
		flush := func() {
			if b.Len() >= 3 {
				tok := b.String()
				if _, stop := contextStop[tok]; !stop {
					toks = append(toks, tok)
				}
			}
			b.Reset()
		}
		for _, r := range s {
			switch {
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				b.WriteRune(r)
			case r >= 'A' && r <= 'Z':
				b.WriteRune(r + ('a' - 'A'))
			default:
				flush()
			}
		}
		flush()
	}
	emit(anchor)
	emit(url)
	return toks
}
