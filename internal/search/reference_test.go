package search

import (
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
	"github.com/bingo-search/bingo/internal/vsm"
)

// referenceSearch is the oracle the snapshot engine is compared against: the
// original per-candidate map-vector scorer, built only on the store's public
// relations (Postings, Get, All, Links) plus vsm and hits. It shares no code
// with the Planner or the scatter — candidate DocIDs from copied postings,
// a store.Get and an idf.Weight map-vector per candidate, per-candidate
// re-stemming for phrases, HITS over the unsorted link list, and a full sort
// of all candidates — and caches nothing, so it is always current.
func referenceSearch(s *store.Store, q Query) []Hit {
	pipe := textproc.NewPipeline()
	freeText, phrases := splitPhrases(q.Text)
	stems := pipe.Stems(freeText)
	var phraseStems [][]string
	for _, ph := range phrases {
		if ps := pipe.Stems(ph); len(ps) > 0 {
			phraseStems = append(phraseStems, ps)
			stems = append(stems, ps...)
		}
	}
	if len(stems) == 0 {
		return nil
	}
	uniq := make(map[string]int, len(stems))
	for _, st := range stems {
		uniq[st]++
	}
	if q.Limit <= 0 {
		q.Limit = 10
	}
	w := q.Weights
	if w == (Weights{}) {
		w = DefaultWeights()
	}

	counts := make(map[store.DocID]int)
	for term := range uniq {
		s.VisitPostings(term, func(id store.DocID, _ int) { counts[id]++ })
	}
	var candidates []store.Document
candidate:
	for id, n := range counts {
		if q.Exact && n < len(uniq) {
			continue
		}
		d, err := s.Get(id)
		if err != nil || d.Tenant != q.Tenant || !topicMatches(d.Topic, q.Topic) {
			continue
		}
		if len(phraseStems) > 0 {
			docStems := pipe.StemsParts(d.Title, d.Text)
			for _, p := range phraseStems {
				if !containsSeq(docStems, p) {
					continue candidate
				}
			}
		}
		candidates = append(candidates, d)
	}
	if len(candidates) == 0 {
		return nil
	}

	stats := vsm.NewCorpusStats()
	for _, d := range s.All() {
		stats.AddDoc(d.Terms)
	}
	idf := stats.Snapshot()
	qv := idf.Weight(uniq)

	out := make([]Hit, len(candidates))
	var maxCos, maxConf, maxAuth float64
	for i, d := range candidates {
		c := vsm.Cosine(qv, idf.Weight(d.Terms))
		out[i] = Hit{Doc: d, Cosine: c, Confidence: d.Confidence}
		if c > maxCos {
			maxCos = c
		}
		if d.Confidence > maxConf {
			maxConf = d.Confidence
		}
	}
	if w.Authority != 0 {
		g := hits.NewGraph()
		for _, l := range s.Links() {
			g.AddEdge(l.From, hits.HostOf(l.From), l.To, hits.HostOf(l.To))
		}
		auth := make(map[string]float64)
		for _, sc := range g.Run(hits.DefaultOptions()).Authorities {
			auth[sc.ID] = sc.Value
		}
		for i := range out {
			a := auth[out[i].Doc.URL]
			out[i].Authority = a
			if a > maxAuth {
				maxAuth = a
			}
		}
	}

	// Normalize each component to [0,1] and combine.
	for i := range out {
		h := &out[i]
		if maxCos > 0 {
			h.Cosine /= maxCos
		}
		if maxConf > 0 {
			h.Confidence /= maxConf
		}
		if maxAuth > 0 {
			h.Authority /= maxAuth
		}
		h.Score = w.Cosine*h.Cosine + w.Confidence*h.Confidence + w.Authority*h.Authority
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc.URL < out[j].Doc.URL
	})
	if len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// topicMatches reports whether docTopic equals filter or lies below it.
func topicMatches(docTopic, filter string) bool {
	if filter == "" {
		return true
	}
	return docTopic == filter || strings.HasPrefix(docTopic, filter+"/")
}
