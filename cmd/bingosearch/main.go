// Command bingosearch queries a crawl's data directory — the tiered store
// cmd/bingo or cmd/portald wrote with -data-dir: the paper's local search
// engine (§3.6) as a standalone tool, with exact/vague filtering, topic
// scoping, combined rankings and query-focused snippets.
//
// Usage:
//
//	bingosearch -data-dir crawl/ [-topic ROOT/databases] [-exact]
//	            [-wcos 1 -wconf 0 -wauth 0] [-n 10] "query words"
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

func main() {
	dataDir := flag.String("data-dir", "", "a crawl's tiered data directory (required)")
	topic := flag.String("topic", "", "restrict to a topic subtree, e.g. ROOT/databases")
	exact := flag.Bool("exact", false, "require every query term (exact filtering)")
	wcos := flag.Float64("wcos", 1, "cosine ranking weight")
	wconf := flag.Float64("wconf", 0, "classifier-confidence ranking weight")
	wauth := flag.Float64("wauth", 0, "HITS-authority ranking weight")
	n := flag.Int("n", 10, "number of results")
	flag.Parse()

	if *dataDir == "" || flag.NArg() == 0 {
		flag.Usage()
		log.Fatal("need -data-dir and a query")
	}
	// OpenTiered creates a missing directory; a query tool must not.
	if _, err := os.Stat(*dataDir); err != nil {
		log.Fatal(err)
	}
	// Shard count 0 adopts the directory's pinned layout; a query-only
	// process has no reason to compact.
	st, err := store.OpenTiered(*dataDir, 0, store.TierOptions{DisableCompaction: true})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	query := strings.Join(flag.Args(), " ")
	fmt.Printf("database: %d documents, topics %v\n", st.NumDocs(), st.Topics())
	hits := search.New(st).Search(search.Query{
		Text:    query,
		Topic:   *topic,
		Exact:   *exact,
		Weights: search.Weights{Cosine: *wcos, Confidence: *wconf, Authority: *wauth},
		Limit:   *n,
	})
	if len(hits) == 0 {
		fmt.Println("no results")
		return
	}
	for i, h := range hits {
		fmt.Printf("%2d. %.3f  %s\n", i+1, h.Score, h.Doc.URL)
		if h.Doc.Title != "" {
			fmt.Printf("    %s\n", h.Doc.Title)
		}
		text, _ := st.DocText(h.Doc.ID)
		if snip := search.Snippet(text, query, 24, ">>", "<<"); snip != "" {
			fmt.Printf("    %s\n", snip)
		}
		fmt.Printf("    topic %s  conf %.3f  cosine %.3f\n", h.Doc.Topic, h.Doc.Confidence, h.Cosine)
	}
}
