package bingo_test

import (
	"context"
	"testing"

	bingo "github.com/bingo-search/bingo"
)

// TestPaperDefaults asserts the §5.1 experiment tuning survives as the
// library defaults.
func TestPaperDefaults(t *testing.T) {
	cfg := bingo.DefaultConfig(bingo.Config{})
	if cfg.Workers != 15 {
		t.Errorf("Workers = %d, want 15", cfg.Workers)
	}
	if cfg.MaxPerHost != 2 {
		t.Errorf("MaxPerHost = %d, want 2", cfg.MaxPerHost)
	}
	if cfg.MaxPerDomain != 5 {
		t.Errorf("MaxPerDomain = %d, want 5", cfg.MaxPerDomain)
	}
	if cfg.MaxTunnelDepth != 2 {
		t.Errorf("MaxTunnelDepth = %d, want 2", cfg.MaxTunnelDepth)
	}
	if cfg.LearnDepth != 4 {
		t.Errorf("LearnDepth = %d, want 4", cfg.LearnDepth)
	}
	if cfg.FeatureOpts.TopK != 2000 {
		t.Errorf("FeatureOpts.TopK = %d, want 2000", cfg.FeatureOpts.TopK)
	}
	if cfg.FeatureOpts.Candidates != 5000 {
		t.Errorf("FeatureOpts.Candidates = %d, want 5000", cfg.FeatureOpts.Candidates)
	}
}

// TestPublicAPIEndToEnd exercises the facade exactly the way the README
// quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	world := bingo.GenerateWorld(bingo.TinyWorldConfig())
	eng, err := bingo.EngineForWorld(world,
		[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		func(c *bingo.Config) {
			c.LearnBudget = 100
			c.HarvestBudget = 250
		})
	if err != nil {
		t.Fatal(err)
	}
	learn, harvest, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if learn.StoredPages == 0 || harvest.VisitedURLs == 0 {
		t.Fatalf("stats: learn=%+v harvest=%+v", learn, harvest)
	}
	hits := eng.Search().Search(bingo.SearchQuery{
		Text:    "database recovery",
		Weights: bingo.RankWeights{Cosine: 0.7, Confidence: 0.3},
	})
	if len(hits) == 0 {
		t.Fatal("no hits through public API")
	}
	var stored []string
	for _, d := range eng.Store().All() {
		stored = append(stored, d.URL)
	}
	ev := world.Evaluate(stored, nil, 10)
	if ev.FoundAll == 0 {
		t.Error("ground-truth evaluation found nothing")
	}
}
