package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
)

// HierarchyRun is the outcome of a crawl over a two-level topic tree (the
// paper's Figure 2 shape): the hierarchical classifier must not only accept
// on-topic pages but route them to the correct leaf.
type HierarchyRun struct {
	Engine  *core.Engine
	Learn   crawler.Stats
	Harvest crawler.Stats
	// PerLeaf counts positively classified author pages per leaf path.
	PerLeaf map[string]int
	// Evaluated / Correct count author pages with ground-truth
	// subcommunities and how many landed in the right leaf.
	Evaluated int
	Correct   int
}

// LeafAccuracy is the fraction of evaluated author pages routed to their
// ground-truth leaf.
func (r *HierarchyRun) LeafAccuracy() float64 {
	if r.Evaluated == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Evaluated)
}

// RunHierarchy crawls a world with primary subcommunities under a two-level
// tree databases/{systems,mining} and measures leaf-routing accuracy.
func RunHierarchy(ctx context.Context, w *corpus.World, learnBudget, harvestBudget int64) (*HierarchyRun, error) {
	subs := w.PrimarySubtopics()
	if len(subs) == 0 {
		return nil, errors.New("experiments: world has no primary subtopics (use a hierarchical config)")
	}
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	seeds := w.SubtopicSeedURLs()
	var topics []core.TopicSpec
	for _, sub := range subs {
		topics = append(topics, core.TopicSpec{
			Path:  []string{"databases", sub},
			Seeds: seeds[sub],
		})
	}
	eng, err := core.New(core.Config{
		Topics:        topics,
		OthersURLs:    w.GeneralPageURLs(50),
		Transport:     w.RoundTripper(),
		DNSServers:    []core.DNSServerSpec{{Table: table}},
		LearnBudget:   learnBudget,
		HarvestBudget: harvestBudget,
	})
	if err != nil {
		return nil, err
	}
	learn, harvest, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	run := &HierarchyRun{Engine: eng, Learn: learn, Harvest: harvest, PerLeaf: map[string]int{}}
	for si, sub := range subs {
		leaf := "ROOT/databases/" + sub
		for _, d := range eng.Store().ByTopic(leaf) {
			run.PerLeaf[leaf]++
			if gt, ok := w.AuthorSubtopic(d.URL); ok {
				run.Evaluated++
				if gt == si {
					run.Correct++
				}
			}
		}
	}
	return run, nil
}

// HierarchyReport formats the outcome.
func HierarchyReport(run *HierarchyRun) string {
	var b strings.Builder
	b.WriteString("Hierarchical classification during crawl (two-level tree)\n")
	leaves := make([]string, 0, len(run.PerLeaf))
	for leaf := range run.PerLeaf {
		leaves = append(leaves, leaf)
	}
	sort.Strings(leaves)
	for _, leaf := range leaves {
		fmt.Fprintf(&b, "  %-28s %5d documents\n", leaf, run.PerLeaf[leaf])
	}
	fmt.Fprintf(&b, "  leaf routing accuracy on author pages: %d/%d = %.3f\n",
		run.Correct, run.Evaluated, run.LeafAccuracy())
	// The per-leaf MI features: the §2.3 example's shape in a two-level tree.
	for _, leaf := range leaves {
		fmt.Fprintf(&b, "  top features for %s: %v\n", leaf, run.Engine.Classifier().TopFeatures(leaf, 8))
	}
	return b.String()
}
