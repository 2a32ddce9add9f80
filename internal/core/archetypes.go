package core

import (
	"sort"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/features"
	"github.com/bingo-search/bingo/internal/hits"
	"github.com/bingo-search/bingo/internal/store"
)

// Archetype selection (§2.6, §3.2): after the learning crawl the most
// characteristic documents of each topic are promoted to training data from
// two complementary sources — the best authorities of the topic's link
// analysis and the automatically classified documents with the highest SVM
// confidence. To prevent topic drift, an archetype's confidence must exceed
// the mean confidence of the current training documents (when the gate is
// enabled), and at most min(NAuth, NConf) archetypes are added per topic.
//
// Archetypes are tenant-scoped: the base set comes from the tenant's own
// classified documents, while the link graph (and the HITS scores over it)
// is the shared, URL-keyed web graph.

// ArchetypeCandidate is one proposed archetype shown to the §2.6 feedback
// step.
type ArchetypeCandidate struct {
	URL        string
	Title      string
	Confidence float64
}

// linkAnalysis builds the §2.5 graph for one topic: the base set (the
// tenant's documents classified into the topic) expanded by successors and
// a bounded number of predecessors, with edges drawn from the stored link
// relation.
func (t *Tenant) linkAnalysis(topicPath string) (authorities, hubs []hits.Score) {
	e := t.eng
	base := e.store.ByTopicTenant(t.id, topicPath)
	if len(base) == 0 {
		return nil, nil
	}
	baseIDs := make([]string, len(base))
	for i, d := range base {
		baseIDs[i] = d.URL
	}
	nodeSet := hits.ExpandBaseSet(baseIDs,
		func(id string) []string { return e.store.Successors(id) },
		func(id string) []string { return e.store.Predecessors(id) },
		50,
	)
	g := hits.NewGraph()
	for id := range nodeSet {
		g.AddNode(id, hits.HostOf(id))
	}
	for id := range nodeSet {
		for _, succ := range e.store.Successors(id) {
			if _, ok := nodeSet[succ]; ok {
				g.AddEdge(id, hits.HostOf(id), succ, hits.HostOf(succ))
			}
		}
	}
	res := g.Run(hits.DefaultOptions())
	return res.Authorities, res.Hubs
}

// promoteArchetypes runs archetype selection and retraining for every topic.
func (t *Tenant) promoteArchetypes() error {
	if !t.eng.cfg.DisableArchetypes {
		for _, node := range t.tree.Nodes() {
			t.promoteTopic(node.Path)
		}
	}
	return t.retrain()
}

// promoteTopic selects archetypes for one topic and adds them to the
// training set.
func (t *Tenant) promoteTopic(topicPath string) {
	e := t.eng
	docs := e.store.ByTopicTenant(t.id, topicPath) // already sorted by confidence desc
	if len(docs) == 0 {
		return
	}

	// Source 1: top authorities from the link analysis.
	auths, _ := t.linkAnalysis(topicPath)
	authSet := map[string]struct{}{}
	for i := 0; i < len(auths) && len(authSet) < e.cfg.NAuth; i++ {
		if e.store.ContainsDoc(t.id, auths[i].ID) {
			authSet[auths[i].ID] = struct{}{}
		}
	}

	// Source 2: highest SVM confidence.
	confSet := map[string]struct{}{}
	for i := 0; i < len(docs) && i < e.cfg.NConf; i++ {
		confSet[docs[i].URL] = struct{}{}
	}

	// Union, minus current training docs.
	current := map[string]struct{}{}
	t.mu.RLock()
	for _, d := range t.training.ByTopic[topicPath] {
		current[d.ID] = struct{}{}
	}
	t.mu.RUnlock()
	candidates := make([]store.Document, 0, len(authSet)+len(confSet))
	seen := map[string]struct{}{}
	for _, d := range docs {
		_, isAuth := authSet[d.URL]
		_, isConf := confSet[d.URL]
		if !isAuth && !isConf {
			continue
		}
		if _, dup := seen[d.URL]; dup {
			continue
		}
		if _, tr := current[d.URL]; tr {
			continue
		}
		seen[d.URL] = struct{}{}
		candidates = append(candidates, d)
	}

	// Topic-drift gate: candidate confidence must beat the mean confidence
	// of the current training documents under the current decision model.
	if e.cfg.EnforceArchetypeGate {
		mean := t.meanTrainingConfidence(topicPath)
		kept := candidates[:0]
		for _, d := range candidates {
			if d.Confidence > mean {
				kept = append(kept, d)
			}
		}
		candidates = kept
	}

	// Cap at min(NAuth, NConf), preferring the highest confidence.
	maxNew := e.cfg.NAuth
	if e.cfg.NConf < maxNew {
		maxNew = e.cfg.NConf
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].Confidence != candidates[j].Confidence {
			return candidates[i].Confidence > candidates[j].Confidence
		}
		return candidates[i].URL < candidates[j].URL
	})
	if len(candidates) > maxNew {
		candidates = candidates[:maxNew]
	}
	// User feedback step (§2.6): let the caller confirm or trim the
	// archetypes before they enter the training set.
	if e.cfg.ReviewArchetypes != nil {
		proposal := make([]ArchetypeCandidate, len(candidates))
		for i, d := range candidates {
			proposal[i] = ArchetypeCandidate{URL: d.URL, Title: d.Title, Confidence: d.Confidence}
		}
		approvedSet := map[string]struct{}{}
		for _, a := range e.cfg.ReviewArchetypes(topicPath, proposal) {
			approvedSet[a.URL] = struct{}{}
		}
		kept := candidates[:0]
		for _, d := range candidates {
			if _, ok := approvedSet[d.URL]; ok {
				kept = append(kept, d)
			}
		}
		candidates = kept
	}
	for _, d := range candidates {
		stems := e.pipe.Stems(d.Title + " " + d.Text)
		if len(stems) == 0 {
			continue
		}
		t.mu.Lock()
		t.training.Add(topicPath, classify.Doc{
			ID:    d.URL,
			Input: features.DocInput{Stems: stems, Anchors: e.store.InAnchors(d.URL)},
		})
		t.mu.Unlock()
	}
}

// meanTrainingConfidence scores the current training documents of a topic
// through the current decision model (§2.4: "training documents have a
// confidence score associated with them, too").
func (t *Tenant) meanTrainingConfidence(topicPath string) float64 {
	cls := t.ensemble.Load()
	if cls == nil {
		return 0
	}
	t.mu.RLock()
	docs := append([]classify.Doc(nil), t.training.ByTopic[topicPath]...)
	t.mu.RUnlock()
	if len(docs) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, d := range docs {
		vote, conf := cls.DecideAt(topicPath, d)
		if vote > 0 {
			sum += conf
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
