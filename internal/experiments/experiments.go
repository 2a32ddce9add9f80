// Package experiments regenerates every table and figure of the paper's
// evaluation section (§5) plus the ablation studies implied by the design
// discussion (§3). The same code backs the root-level testing.B benchmarks
// and the cmd/experiments binary, so "go test -bench" and the CLI print the
// same rows the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/search"
)

// coreConfig shortens signatures in this package.
type coreConfig = core.Config

// PortalRun is one full portal-generation crawl (§5.2) with its outcome.
type PortalRun struct {
	Engine  *core.Engine
	Learn   crawler.Stats
	Harvest crawler.Stats
	// Stored lists every stored URL; Ranked lists the positively
	// classified URLs in descending classification confidence.
	Stored []string
	Ranked []string
}

// NewPortalEngine wires an engine to a world for the single-topic
// "database research" portal crawl.
func NewPortalEngine(w *corpus.World, learnBudget, harvestBudget int64, mut func(*core.Config)) (*core.Engine, error) {
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	cfg := core.Config{
		Topics:        []core.TopicSpec{{Path: []string{"databases"}, Seeds: w.SeedURLs()}},
		OthersURLs:    w.GeneralPageURLs(50),
		Transport:     w.RoundTripper(),
		DNSServers:    []core.DNSServerSpec{{Table: table}, {Table: table}, {Table: table}, {Table: table}, {Table: table}},
		LearnBudget:   learnBudget,
		HarvestBudget: harvestBudget,
	}
	if mut != nil {
		mut(&cfg)
	}
	return core.New(cfg)
}

// RunPortal executes bootstrap → learn → harvest and collects the outcome.
func RunPortal(ctx context.Context, w *corpus.World, learnBudget, harvestBudget int64, mut func(*core.Config)) (*PortalRun, error) {
	eng, err := NewPortalEngine(w, learnBudget, harvestBudget, mut)
	if err != nil {
		return nil, err
	}
	learn, harvest, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	run := &PortalRun{Engine: eng, Learn: learn, Harvest: harvest}
	for _, d := range eng.Store().All() {
		run.Stored = append(run.Stored, d.URL)
	}
	positives := eng.Store().ByTopic("ROOT/databases") // confidence-sorted
	for _, d := range positives {
		run.Ranked = append(run.Ranked, d.URL)
	}
	return run, nil
}

// Total merges the two phases' counters (the paper reports whole-crawl
// numbers).
func (r *PortalRun) Total() crawler.Stats {
	t := r.Learn
	t.VisitedURLs += r.Harvest.VisitedURLs
	t.StoredPages += r.Harvest.StoredPages
	t.ExtractedLinks += r.Harvest.ExtractedLinks
	t.Positive += r.Harvest.Positive
	t.Errors += r.Harvest.Errors
	t.Duplicates += r.Harvest.Duplicates
	t.Rejected += r.Harvest.Rejected
	if r.Harvest.VisitedHosts > t.VisitedHosts {
		t.VisitedHosts = r.Harvest.VisitedHosts
	}
	if r.Harvest.MaxDepth > t.MaxDepth {
		t.MaxDepth = r.Harvest.MaxDepth
	}
	return t
}

// snapshotRun captures the current state of an engine as a PortalRun.
func snapshotRun(eng *core.Engine, learn, harvest crawler.Stats) *PortalRun {
	run := &PortalRun{Engine: eng, Learn: learn, Harvest: harvest}
	for _, d := range eng.Store().All() {
		run.Stored = append(run.Stored, d.URL)
	}
	for _, d := range eng.Store().ByTopic("ROOT/databases") {
		run.Ranked = append(run.Ranked, d.URL)
	}
	return run
}

// Table1 reproduces the crawl-summary table exactly the way the paper ran
// it: one crawl session, paused at the short budget to assess intermediate
// results and then *resumed* to the long budget (§5.2: "We paused the crawl
// after 90 minutes ... and then resumed it for a total crawl time of 12
// hours"). Budgets replace wall-clock time on the synthetic web.
func Table1(ctx context.Context, w *corpus.World, shortBudget, longBudget int64) (shortRun, longRun *PortalRun, report string, err error) {
	eng, err := NewPortalEngine(w, shortBudget/4, shortBudget-shortBudget/4, nil)
	if err != nil {
		return nil, nil, "", err
	}
	learn, harvest, err := eng.Run(ctx)
	if err != nil {
		return nil, nil, "", err
	}
	shortRun = snapshotRun(eng, learn, harvest)

	// Resume the same session up to the long budget.
	more, err := eng.HarvestN(ctx, longBudget-shortBudget)
	if err != nil {
		return nil, nil, "", err
	}
	harvest.VisitedURLs += more.VisitedURLs
	harvest.StoredPages += more.StoredPages
	harvest.ExtractedLinks += more.ExtractedLinks
	harvest.Positive += more.Positive
	harvest.Errors += more.Errors
	harvest.Duplicates += more.Duplicates
	harvest.Rejected += more.Rejected
	if more.VisitedHosts > harvest.VisitedHosts {
		harvest.VisitedHosts = more.VisitedHosts
	}
	if more.MaxDepth > harvest.MaxDepth {
		harvest.MaxDepth = more.MaxDepth
	}
	longRun = snapshotRun(eng, learn, harvest)
	s, l := shortRun.Total(), longRun.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: crawl summary data (budgets %d vs %d pages)\n", shortBudget, longBudget)
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "Property", "short crawl", "long crawl")
	row := func(name string, a, c int64) { fmt.Fprintf(&b, "%-24s %12d %12d\n", name, a, c) }
	row("Visited URLs", s.VisitedURLs, l.VisitedURLs)
	row("Stored pages", s.StoredPages, l.StoredPages)
	row("Extracted links", s.ExtractedLinks, l.ExtractedLinks)
	row("Positively classified", s.Positive, l.Positive)
	row("Visited hosts", int64(s.VisitedHosts), int64(l.VisitedHosts))
	row("Max crawling depth", int64(s.MaxDepth), int64(l.MaxDepth))
	return shortRun, longRun, b.String(), nil
}

// PrecisionRow is one row of Tables 2/3.
type PrecisionRow struct {
	K          int // best-K crawl results by confidence (0 = all)
	TopAuthors int // hits among the top-N ground-truth authors
	AllAuthors int // distinct authors found within the best-K results
	recallK    int
}

// PrecisionTable reproduces Tables 2 and 3: the crawl result is sorted by
// descending classification confidence and the best K results are matched
// against the top-N DBLP-analog authors. ks = 0 means "all results".
func PrecisionTable(w *corpus.World, run *PortalRun, topN int, ks []int) ([]PrecisionRow, string) {
	var rows []PrecisionRow
	for _, k := range ks {
		ranked := run.Ranked
		if k > 0 && k < len(ranked) {
			ranked = ranked[:k]
		}
		ev := w.Evaluate(ranked, ranked, topN)
		rows = append(rows, PrecisionRow{K: k, TopAuthors: ev.TopInRanked, AllAuthors: ev.FoundAll})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %12s\n", "Best crawl results", fmt.Sprintf("Top %d GT", topN), "All authors")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.K)
		if r.K == 0 || r.K >= len(run.Ranked) {
			label = fmt.Sprintf("all (%d)", len(run.Ranked))
		}
		fmt.Fprintf(&b, "%-22s %14d %12d\n", label, r.TopAuthors, r.AllAuthors)
	}
	return rows, b.String()
}

// Recall evaluates total ground-truth recall of a run (the paper's headline
// "712 of the top 1000 DBLP authors").
func Recall(w *corpus.World, run *PortalRun, topN int) corpus.PortalEval {
	return w.Evaluate(run.Stored, run.Ranked, topN)
}

// ExpertRun is the §5.3 needle-in-a-haystack experiment outcome.
type ExpertRun struct {
	Engine       *core.Engine
	Stats        crawler.Stats
	Seeds        []string
	Hits         []search.Hit
	NeedleInTop  bool
	NeedleRank   int // 1-based rank of the first needle page (0 = absent)
	PositiveDocs int
}

// RunExpert reproduces the expert Web search: bootstrap from the ARIES
// lecture seeds (Figure 4's analog), a short focused crawl, then keyword
// filtering with cosine ranking for "source code release" (Figure 5).
func RunExpert(ctx context.Context, w *corpus.World, budget int64) (*ExpertRun, error) {
	table := map[string]string{}
	for h, rec := range w.DNSTable() {
		table[h] = rec.IP
	}
	eng, err := core.New(core.Config{
		Topics:        []core.TopicSpec{{Path: []string{"aries"}, Seeds: w.ExpertSeedURLs()}},
		OthersURLs:    w.GeneralPageURLs(50),
		Transport:     w.RoundTripper(),
		DNSServers:    []core.DNSServerSpec{{Table: table}},
		LearnBudget:   budget / 4,
		HarvestBudget: budget - budget/4,
		LearnDepth:    7,
	})
	if err != nil {
		return nil, err
	}
	learn, harvest, err := eng.Run(ctx)
	if err != nil {
		return nil, err
	}
	run := &ExpertRun{Engine: eng, Seeds: w.ExpertSeedURLs()}
	run.Stats = learn
	run.Stats.VisitedURLs += harvest.VisitedURLs
	run.Stats.StoredPages += harvest.StoredPages
	run.Stats.Positive += harvest.Positive
	run.PositiveDocs = len(eng.Store().ByTopic("ROOT/aries"))
	run.Hits = eng.Search().Search(search.Query{Text: "source code release", Limit: 10})
	needles := map[string]bool{}
	for _, n := range w.NeedleURLs() {
		needles[n] = true
	}
	for i, h := range run.Hits {
		if needles[h.Doc.URL] {
			run.NeedleInTop = true
			run.NeedleRank = i + 1
			break
		}
	}
	return run, nil
}

// Figure4 formats the expert-search seed selection: the reference engine's
// top-10 for the query (the paper's Google step) followed by the documents
// selected for training (the analog of the paper's seven seed URLs).
func Figure4(w *corpus.World) string {
	var b strings.Builder
	b.WriteString("Reference-engine top 10 for \"aries recovery algorithm\" (the Google step):\n")
	for i, u := range w.ReferenceSearch("aries recovery algorithm", 10) {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, u)
	}
	b.WriteString("Figure 4: initial training documents (expert search seeds)\n")
	for i, u := range w.ExpertSeedURLs() {
		fmt.Fprintf(&b, "%d  %s\n", i+1, u)
	}
	return b.String()
}

// Figure5 formats the top-10 result list with cosine scores.
func Figure5(run *ExpertRun) string {
	var b strings.Builder
	b.WriteString("Figure 5: top 10 results for query \"source code release\"\n")
	for _, h := range run.Hits {
		fmt.Fprintf(&b, "%6.3f  %s\n", h.Cosine, h.Doc.URL)
	}
	if run.NeedleInTop {
		fmt.Fprintf(&b, "needle page found at rank %d\n", run.NeedleRank)
	} else {
		b.WriteString("needle page NOT in top 10\n")
	}
	return b.String()
}

// MITopTerms reproduces the §2.3 feature-selection example: the top-k MI
// stems of the primary topic against the general Web.
func MITopTerms(w *corpus.World, k int) []string {
	train, _ := LabeledDocs(w, 40, 0)
	cls, err := TrainOnLabeled(train, nil)
	if err != nil {
		return nil
	}
	return cls.TopFeatures("ROOT/databases", k)
}
