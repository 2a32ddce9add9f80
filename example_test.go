package bingo_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	bingo "github.com/bingo-search/bingo"
)

// ExampleNewEngine shows the full focused-crawl lifecycle against the
// synthetic web: bootstrap from bookmark seeds, learning phase, harvesting
// phase, then querying the resulting portal.
func ExampleNewEngine() {
	world := bingo.GenerateWorld(bingo.TinyWorldConfig())
	engine, err := bingo.EngineForWorld(world,
		[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		func(c *bingo.Config) {
			c.LearnBudget = 80
			c.HarvestBudget = 200
		})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := engine.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	hits := engine.Search().Search(bingo.SearchQuery{
		Text:  "database recovery",
		Topic: "ROOT/databases",
		Limit: 3,
	})
	for _, h := range hits {
		fmt.Println(h.Doc.URL)
	}
}

// ExampleParseTopicFile shows loading topic seeds from the plain-text
// bookmark format.
func ExampleParseTopicFile() {
	const seeds = `# my overnight crawl
databases/systems	http://cs00.databases.example/~author0000/index.html
databases/mining	http://cs01.databases.example/~author0001/index.html
`
	topics, err := bingo.ParseTopicFile(strings.NewReader(seeds))
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range topics {
		fmt.Println(t.Path, len(t.Seeds))
	}
	// Output:
	// [databases mining] 1
	// [databases systems] 1
}

// ExampleEngine_SaveSession shows pausing a crawl overnight-style and
// resuming it later with extra budget: the session is the crawl's data
// directory.
func ExampleEngine_SaveSession() {
	world := bingo.GenerateWorld(bingo.TinyWorldConfig())
	topics := []bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}}
	engine, err := bingo.EngineForWorld(world, topics, func(c *bingo.Config) {
		c.LearnBudget = 50
		c.HarvestBudget = 50
		c.DataDir = "crawl"
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := engine.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := engine.SaveSession(); err != nil {
		log.Fatal(err)
	}
	engine.Close()

	// ... next morning:
	resumed, err := bingo.LoadSession(mustConfig(world, topics, "crawl"))
	if err != nil {
		log.Fatal(err)
	}
	defer resumed.Close()
	_, _ = resumed.HarvestN(context.Background(), 200)
}

func mustConfig(world *bingo.World, topics []bingo.TopicSpec, dataDir string) bingo.Config {
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	return bingo.Config{
		Topics:     topics,
		OthersURLs: world.GeneralPageURLs(12),
		Transport:  world.RoundTripper(),
		DNSServers: []bingo.DNSServerSpec{{Table: table}},
		DataDir:    dataDir,
	}
}
