// Portal generation (paper §5.2): populate a "database research" portal
// from two seed homepages, evaluate recall/precision against the DBLP-
// analog ground truth, let the cluster analysis suggest subclass structure,
// and keep the crawl as a resumable session in a data directory.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	bingo "github.com/bingo-search/bingo"
)

func main() {
	world := bingo.GenerateWorld(bingo.SmallWorldConfig())
	fmt.Println(world)
	fmt.Printf("seeds (the 'DeWitt and Gray' of this world): %v\n\n", world.SeedURLs())

	dir, err := os.MkdirTemp("", "bingo-portal-")
	if err != nil {
		log.Fatal(err)
	}
	engine, err := bingo.EngineForWorld(world,
		[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		func(c *bingo.Config) {
			c.LearnBudget = 120
			c.HarvestBudget = 1200
			c.DataDir = dir
		})
	if err != nil {
		log.Fatal(err)
	}
	learn, harvest, err := engine.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crawl summary: visited %d URLs, stored %d pages, %d positively classified\n\n",
		learn.VisitedURLs+harvest.VisitedURLs,
		learn.StoredPages+harvest.StoredPages,
		learn.Positive+harvest.Positive)

	// Recall against the ground truth: a top author counts as found when
	// any page underneath their homepage was stored (the paper's measure).
	var stored, ranked []string
	for _, d := range engine.Store().All() {
		stored = append(stored, d.URL)
	}
	for _, d := range engine.Store().ByTopic("ROOT/databases") {
		ranked = append(ranked, d.URL)
	}
	const topN = 75
	ev := world.Evaluate(stored, ranked, topN)
	fmt.Printf("ground truth: found %d of the top %d authors, %d of all %d authors\n",
		ev.FoundTop, topN, ev.FoundAll, len(world.Authors))
	fmt.Printf("precision: %d of the confidence-ranked results belong to top-%d authors\n\n",
		ev.TopInRanked, topN)

	// Cluster analysis (§3.6): suggest subclasses for the portal class.
	res, k, docs := engine.ClusterTopic("ROOT/databases", 2, 5)
	fmt.Printf("cluster analysis of %d class documents chose K=%d (impurity %.3f)\n",
		len(docs), k, res.Impurity)
	for i, label := range res.Labels {
		fmt.Printf("  suggested subclass %d: %v\n", i+1, label)
	}

	// The crawl already lives in dir; the session makes it resumable.
	if err := engine.SaveSession(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrawl session saved in %s (%d documents); query it with bingosearch -data-dir %s\n",
		dir, engine.Store().NumDocs(), dir)
	if err := engine.Close(); err != nil {
		log.Fatal(err)
	}
}
