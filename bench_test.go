// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) plus the ablation studies of §3. Each benchmark runs the full
// experiment per iteration and reports the headline result numbers as
// custom metrics, so `go test -bench=.` reproduces the paper's rows.
//
// Budgets replace the paper's wall-clock durations: the synthetic web is
// served in-process, so "90 minutes vs 12 hours" becomes "a short page
// budget vs an 8x larger one". Absolute counts differ from the paper (the
// synthetic world is ~2k pages, not the 2002 Web); the shapes — long ≫
// short on recall, focused ≫ unfocused on precision, meta ≥ single — are
// what these benchmarks assert and report.
package bingo_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/experiments"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

const (
	shortBudget = 250  // the "90 minutes" analog
	longBudget  = 2000 // the "12 hours" analog
	topN        = 75   // "top 1000 DBLP authors" scaled to the world size
)

func smallWorld() *corpus.World { return corpus.Generate(corpus.SmallConfig()) }

// BenchmarkTable1CrawlSummary regenerates Table 1: crawl summary counters
// at the short and long budget.
func BenchmarkTable1CrawlSummary(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		shortRun, longRun, report, err := experiments.Table1(context.Background(), w, shortBudget, longBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			s, l := shortRun.Total(), longRun.Total()
			b.ReportMetric(float64(s.VisitedURLs), "short-visited")
			b.ReportMetric(float64(l.VisitedURLs), "long-visited")
			b.ReportMetric(float64(s.StoredPages), "short-stored")
			b.ReportMetric(float64(l.StoredPages), "long-stored")
			b.ReportMetric(float64(s.Positive), "short-positive")
			b.ReportMetric(float64(l.Positive), "long-positive")
		}
	}
}

// BenchmarkTable2PrecisionShort regenerates Table 2: precision/recall of
// the short crawl against the top-N ground-truth authors.
func BenchmarkTable2PrecisionShort(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunPortal(context.Background(), w, shortBudget/4, shortBudget-shortBudget/4, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, report := experiments.PrecisionTable(w, run, topN, []int{50, 200, 0})
		ev := experiments.Recall(w, run, topN)
		if i == 0 {
			b.Log("\nTable 2 (short crawl)\n" + report)
			b.ReportMetric(float64(rows[0].TopAuthors), "top-in-best50")
			b.ReportMetric(float64(ev.FoundTop), "topN-recall")
			b.ReportMetric(float64(ev.FoundAll), "all-recall")
		}
	}
}

// BenchmarkTable3PrecisionLong regenerates Table 3: the same evaluation
// after the long crawl; recall must grow substantially versus Table 2.
func BenchmarkTable3PrecisionLong(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunPortal(context.Background(), w, shortBudget/4, longBudget-shortBudget/4, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, report := experiments.PrecisionTable(w, run, topN, []int{50, 200, 0})
		ev := experiments.Recall(w, run, topN)
		if i == 0 {
			b.Log("\nTable 3 (long crawl)\n" + report)
			b.ReportMetric(float64(rows[0].TopAuthors), "top-in-best50")
			b.ReportMetric(float64(ev.FoundTop), "topN-recall")
			b.ReportMetric(float64(ev.FoundAll), "all-recall")
		}
	}
}

// BenchmarkFigure5ExpertSearch regenerates the §5.3 expert search: a short
// ARIES crawl followed by the "source code release" query; the metric is
// the rank of the first needle page (0 = not found).
func BenchmarkFigure5ExpertSearch(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunExpert(context.Background(), w, 400)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.Figure4(w) + "\n" + experiments.Figure5(run))
			b.ReportMetric(float64(run.NeedleRank), "needle-rank")
			b.ReportMetric(float64(run.PositiveDocs), "positive-docs")
		}
	}
}

// BenchmarkMetaClassifierAblation regenerates the §3.5 claim: meta
// combination lifts precision over single-space classifiers.
func BenchmarkMetaClassifierAblation(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		res, report, err := experiments.MetaAblation(w, 12)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			b.ReportMetric(res.BestSingle, "best-single-prec")
			b.ReportMetric(res.Unanimous, "unanimous-prec")
			b.ReportMetric(res.Weighted, "weighted-prec")
		}
	}
}

// BenchmarkFocusedVsUnfocused regenerates the focused-vs-generic-crawler
// comparison implied by §1.2 at an equal page budget.
func BenchmarkFocusedVsUnfocused(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		cmp, report, err := experiments.FocusedVsUnfocused(context.Background(), w, shortBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			b.ReportMetric(100*cmp.FocusedOnTopic, "focused-ontopic-%")
			b.ReportMetric(100*cmp.UnfocusedOnTopic, "unfocused-ontopic-%")
		}
	}
}

// BenchmarkTunnellingAblation sweeps the §3.3 tunnelling depth at a
// saturating budget; the metric is author recall, since pages behind
// topic-unspecific welcome pages stay unreachable without tunnelling.
func BenchmarkTunnellingAblation(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		out, err := experiments.TunnellingAblation(context.Background(), w, longBudget, []int{0, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, d := range []int{0, 1, 2} {
				ev := experiments.Recall(w, out[d], topN)
				b.ReportMetric(float64(ev.FoundAll), "authors-tunnel"+string(rune('0'+d)))
			}
		}
	}
}

// BenchmarkArchetypeAblation compares archetype promotion on/off (§3.2).
func BenchmarkArchetypeAblation(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		withArch, withoutArch, err := experiments.ArchetypeAblation(context.Background(), w, shortBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			evWith := experiments.Recall(w, withArch, topN)
			evWithout := experiments.Recall(w, withoutArch, topN)
			b.ReportMetric(float64(evWith.FoundTop), "recall-with-archetypes")
			b.ReportMetric(float64(evWithout.FoundTop), "recall-without")
			b.ReportMetric(float64(withArch.Engine.TrainingSize()), "training-docs-with")
			b.ReportMetric(float64(withoutArch.Engine.TrainingSize()), "training-docs-without")
		}
	}
}

// BenchmarkTwoPhaseAblation compares learn-then-harvest vs harvest-only at
// the same total budget (§2.6).
func BenchmarkTwoPhaseAblation(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		two, only, err := experiments.TwoPhaseAblation(context.Background(), w, shortBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(experiments.Recall(w, two, topN).FoundTop), "two-phase-recall")
			b.ReportMetric(float64(experiments.Recall(w, only, topN).FoundTop), "harvest-only-recall")
		}
	}
}

// BenchmarkFeatureSpaceAblation measures per-space precision (§3.4).
func BenchmarkFeatureSpaceAblation(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		out, report, err := experiments.FeatureSpaceAblation(w, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			b.ReportMetric(out["terms"], "terms-prec")
			b.ReportMetric(out["combined"], "combined-prec")
		}
	}
}

// BenchmarkHierarchicalCrawl runs the two-level topic tree of Figure 2
// against a world with ground-truth subcommunities; the metric is leaf
// routing accuracy of the hierarchical classifier during the crawl (§2.4).
func BenchmarkHierarchicalCrawl(b *testing.B) {
	w := corpus.Generate(corpus.HierarchicalConfig())
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunHierarchy(context.Background(), w, 150, 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + experiments.HierarchyReport(run))
			b.ReportMetric(run.LeafAccuracy(), "leaf-accuracy")
			b.ReportMetric(float64(run.Evaluated), "author-pages")
		}
	}
}

// BenchmarkCrawlThroughput measures end-to-end crawl throughput — fetch,
// parse, classify, store through the persistent worker pool and per-worker
// workspace bulk loads — in pages per second (plus docs/min, the unit of
// the §4.1 claim that the batched write path sustains "up to ten thousand
// documents per minute"; their bottleneck was the network and Oracle, ours
// is CPU), and heap allocations per stored page.
func BenchmarkCrawlThroughput(b *testing.B) {
	w := smallWorld()
	var pages, secs, allocs float64
	for i := 0; i < b.N; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		stats, _ := experiments.RunUnfocusedBaseline(context.Background(), w, 1500)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if stats.StoredPages == 0 {
			b.Fatal("crawl stored nothing")
		}
		pages += float64(stats.StoredPages)
		secs += elapsed.Seconds()
		allocs += float64(m1.Mallocs - m0.Mallocs)
	}
	b.ReportMetric(pages/secs, "pages/sec")
	b.ReportMetric(pages/(secs/60), "docs/min")
	b.ReportMetric(allocs/pages, "allocs/page")
	b.ReportMetric(pages/float64(b.N), "stored")
}

// BenchmarkFeatureCountSweep sweeps the MI feature count (§2.3's top-2000
// tuning).
func BenchmarkFeatureCountSweep(b *testing.B) {
	w := smallWorld()
	for i := 0; i < b.N; i++ {
		out, report, err := experiments.FeatureCountSweep(w, 40, []int{500, 1000, 2000, 5000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			b.ReportMetric(out[2000], "prec-top2000")
			b.ReportMetric(out[500], "prec-top500")
		}
	}
}

// BenchmarkTrapResistance measures how much crawl budget an unbounded
// calendar-style crawler trap absorbs, focused vs unfocused (§4.2).
func BenchmarkTrapResistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, report, err := experiments.TrapResistance(context.Background(), corpus.SmallConfig(), longBudget)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + report)
			b.ReportMetric(float64(res.FocusedTrapped), "focused-trapped")
			b.ReportMetric(float64(res.UnfocusedTrapped), "unfocused-trapped")
		}
	}
}

// buildSearchStore synthesizes a crawl database for the query benchmarks:
// Zipf-distributed vocabulary (a few hot terms, a long tail), a topic tree,
// real text for phrase queries, per-host link structure for HITS, and
// varied confidences.
func buildSearchStore(nDocs int) *store.Store {
	s := store.New()
	fillSearchStore(s, nDocs)
	return s
}

// fillSearchStore populates s with the synthetic query corpus; the shard
// benchmark reuses it to feed identical corpora to differently partitioned
// stores.
func fillSearchStore(s *store.Store, nDocs int) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1.5, 799)
	topics := []string{"ROOT/db", "ROOT/db/core", "ROOT/db/recovery", "ROOT/web", "ROOT/OTHERS"}
	texts := []string{
		"the source code release includes recovery logging internals",
		"a survey of transaction recovery protocols in database systems",
		"notes on crawler scheduling and classifier confidence",
		"storage and index structures for efficient query processing",
	}
	for i := 0; i < nDocs; i++ {
		terms := make(map[string]int)
		for k := 0; k < 8+rng.Intn(8); k++ {
			terms[fmt.Sprintf("t%d", zipf.Uint64())] += 1 + rng.Intn(4)
		}
		// seed the query terms into a slice of the corpus
		if i%3 == 0 {
			terms["recoveri"] = 1 + rng.Intn(4)
		}
		if i%5 == 0 {
			terms["transact"] = 1 + rng.Intn(3)
		}
		s.Insert(store.Document{
			URL:        fmt.Sprintf("http://h%d.example/doc%d", i%29, i),
			Topic:      topics[rng.Intn(len(topics))],
			Confidence: float64(rng.Intn(1000)) / 1000,
			Title:      fmt.Sprintf("synthetic page %d", i),
			Text:       texts[rng.Intn(len(texts))],
			Terms:      terms,
		})
	}
	for i := 0; i < nDocs*2; i++ {
		s.AddLink(store.Link{
			From: fmt.Sprintf("http://h%d.example/doc%d", rng.Intn(29), rng.Intn(nDocs)),
			To:   fmt.Sprintf("http://h%d.example/doc%d", rng.Intn(29), rng.Intn(nDocs)),
		})
	}
}

// searchQueryMix is the workload of the QPS benchmarks: vague and exact
// keyword queries, hot and long-tail terms, a topic filter, and a weighted
// combination — the shapes §3.6 exposes, minus phrases and authority, which
// get dedicated variants below.
func searchQueryMix() []search.Query {
	return []search.Query{
		{Text: "recovery transaction"},
		{Text: "t1 t2 t7"},
		{Text: "recovery t3", Exact: true},
		{Text: "t1 recovery", Topic: "ROOT/db"},
		{Text: "recovery transaction t5", Weights: search.Weights{Cosine: 0.7, Confidence: 0.3}},
		{Text: "t42 t100 recovery"},
	}
}

// benchSearchQPS drives a query mix at one goroutine or GOMAXPROCS.
func benchSearchQPS(b *testing.B, parallel bool, queries []search.Query) {
	s := buildSearchStore(4000)
	e := search.New(s)
	for _, q := range queries { // warm caches/snapshot outside the timer
		e.Search(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				e.Search(queries[i%len(queries)])
				i++
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		e.Search(queries[i%len(queries)])
	}
}

// BenchmarkSearchQPS measures queries/sec of the snapshot read path,
// single-goroutine and parallel, with and without phrase, topic, and
// authority components.
func BenchmarkSearchQPS(b *testing.B) {
	phrase := []search.Query{{Text: `"transaction recovery" protocols`}, {Text: `"source code release"`}}
	authority := []search.Query{{Text: "recovery transaction", Weights: search.Weights{Cosine: 0.5, Authority: 0.5}}}
	topic := []search.Query{{Text: "recovery", Topic: "ROOT/db"}, {Text: "transaction", Topic: "ROOT/db/recovery"}}
	for _, v := range []struct {
		name     string
		parallel bool
		queries  []search.Query
	}{
		{"Indexed", false, searchQueryMix()},
		{"IndexedParallel", true, searchQueryMix()},
		{"IndexedPhrase", false, phrase},
		{"IndexedTopic", false, topic},
		{"IndexedAuthority", false, authority},
	} {
		b.Run(v.name, func(b *testing.B) { benchSearchQPS(b, v.parallel, v.queries) })
	}
}

// ---- Sharded store: dirty-rebuild economy under mixed write/query load ----

// BenchmarkShardChurn drives the mixed load: one localized insert plus a
// query that forces a fresh snapshot per iteration, sharded vs single-shard.
func BenchmarkShardChurn(b *testing.B) {
	for _, v := range []struct {
		name   string
		shards int
	}{{"P8", 8}, {"P1", 1}} {
		b.Run(v.name, func(b *testing.B) {
			s := store.NewSharded(v.shards)
			fillSearchStore(s, 4000)
			e := search.New(s)
			mix := searchQueryMix()
			e.Search(mix[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(store.Document{
					URL:   fmt.Sprintf("http://churn.example/slot%d", i%64),
					Topic: "ROOT/db",
					Terms: map[string]int{"recoveri": 1 + i%3, "churn": 2},
				})
				e.Search(mix[i%len(mix)])
			}
		})
	}
}
