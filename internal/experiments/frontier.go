package experiments

// The frontier scheduling lab (DESIGN.md "Frontier scheduling"): race every
// crawl-ordering policy over the same synthetic web at a fixed page budget
// and measure the harvest ratio — on-topic pages per page fetched, the
// focused-crawling yardstick the paper optimizes for. One worker keeps every
// run deterministic, so a cell is reproducible bit-for-bit; chaos profiles
// and seeds vary the fault plane to show how each policy degrades. The same
// rig produces the frontier-memory evidence: a budgeted frontier's
// in-memory high-water mark stays at the budget while the unbounded one
// grows with the crawl.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/dns"
	"github.com/bingo-search/bingo/internal/faults"
	"github.com/bingo-search/bingo/internal/fetch"
	"github.com/bingo-search/bingo/internal/frontier"
	"github.com/bingo-search/bingo/internal/store"
)

// FrontierCell is one (scheduler, profile, seed) crawl of the race.
type FrontierCell struct {
	Scheduler string
	Profile   string
	Seed      int64
	Budget    int64
	Visited   int64
	Stored    int64
	OnTopic   int64
	Harvest   float64 // OnTopic / Visited
	// Curve is the cumulative on-topic count at each quarter of the fetch
	// budget (fetch attempts, not visits — with one worker and few retries
	// the two track closely).
	Curve        []int64
	PeakInMemory int
	SpilledPeak  int64
}

// frontierCellSpec parameterizes one race cell.
type frontierCellSpec struct {
	scheduler   string
	profile     string // "off" = fault-free
	seed        int64
	budget      int64
	spillBudget int // 0 = unbounded in-memory frontier
}

// countingTransport counts fetch attempts; it sits outermost so retries and
// injected-fault attempts are all visible to the harvest curve's x-axis.
type countingTransport struct {
	rt http.RoundTripper
	n  atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.rt.RoundTrip(req)
}

// raceSeedHosts exempts the world's seed hosts from fault classes so every
// cell has somewhere to start (mirrors the chaos suite).
func raceSeedHosts(w *corpus.World) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range w.SeedURLs() {
		h := s
		if i := strings.Index(h, "://"); i >= 0 {
			h = h[i+3:]
		}
		if i := strings.IndexAny(h, "/:"); i >= 0 {
			h = h[:i]
		}
		if h != "" && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// runFrontierCell crawls one cell to its page budget and measures it.
func runFrontierCell(w *corpus.World, cls *classify.Classifier, spec frontierCellSpec) (FrontierCell, error) {
	ct := &countingTransport{rt: w.RoundTripper()}
	var transport http.RoundTripper = ct
	primary := dns.Server(w.DNSServer())
	secondary := dns.Server(w.DNSServer())
	if spec.profile != "off" {
		prof, err := faults.ByName(spec.profile)
		if err != nil {
			return FrontierCell{}, err
		}
		prof.Exempt = raceSeedHosts(w)
		plane := faults.New(spec.seed, prof)
		transport = plane.Wrap(ct)
		primary = plane.WrapDNS(0, primary)
		secondary = plane.WrapDNS(1, secondary)
	}
	resolver := dns.NewResolver(dns.Config{
		Timeout:      25 * time.Millisecond,
		ServerBadFor: 5 * time.Second,
	}, primary, secondary)
	f := fetch.New(fetch.Config{
		Transport: transport,
		Resolver:  resolver,
		Timeout:   100 * time.Millisecond,
		Retry: fetch.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		DegradeTruncated: true,
	}, nil, fetch.NewHostTracker(1<<30))

	fcfg := frontier.DefaultConfig()
	fcfg.Scheduler = spec.scheduler
	fcfg.TopicTerms = func(topic string) map[string]float64 { return cls.TopicTerms(topic, 64) }
	if spec.spillBudget > 0 {
		fcfg.SpillBudget = spec.spillBudget
	}
	fr := frontier.New(fcfg)

	cell := FrontierCell{
		Scheduler: spec.scheduler,
		Profile:   spec.profile,
		Seed:      spec.seed,
		Budget:    spec.budget,
		Curve:     make([]int64, 4),
	}
	var mu sync.Mutex
	var onTopic int64
	marks := []int64{spec.budget / 4, spec.budget / 2, 3 * spec.budget / 4, spec.budget}
	next := 0
	st := store.New()
	c := crawler.New(crawler.Config{
		Fetcher:        f,
		Frontier:       fr,
		Store:          st,
		Classify:       cls.Classify,
		Workers:        1,
		PageBudget:     spec.budget,
		MaxTunnelDepth: 2,
		Focus:          crawler.SoftFocus,
		OnStored: func(d store.Document, r classify.Result) {
			mu.Lock()
			defer mu.Unlock()
			if ti, ok := w.PageTopic(d.URL); ok && ti == 0 {
				onTopic++
			}
			fetched := ct.n.Load()
			for next < len(marks) && fetched >= marks[next] {
				cell.Curve[next] = onTopic
				next++
			}
			if fs := fr.Stats(); int64(fs.Spilled) > cell.SpilledPeak {
				cell.SpilledPeak = int64(fs.Spilled)
			}
		},
	})
	c.Seed("ROOT/"+w.Topics()[0], w.SeedURLs()...)
	stats := c.Run(context.Background())
	for ; next < len(marks); next++ {
		cell.Curve[next] = onTopic
	}
	fs := fr.Stats()
	cell.Visited = stats.VisitedURLs
	cell.Stored = stats.StoredPages
	cell.OnTopic = onTopic
	cell.PeakInMemory = fs.PeakInMemory
	if int64(fs.Spilled) > cell.SpilledPeak {
		cell.SpilledPeak = int64(fs.Spilled)
	}
	if cell.Visited > 0 {
		cell.Harvest = float64(cell.OnTopic) / float64(cell.Visited)
	}
	if err := fr.SpillErr(); err != nil {
		return cell, fmt.Errorf("frontier spill failed during %s/%s/seed %d: %w",
			spec.scheduler, spec.profile, spec.seed, err)
	}
	return cell, nil
}

// FrontierRace runs the full scheduler × profile × seed matrix at one page
// budget and formats the harvest-ratio table. The classifier is trained
// once on a fixed labeled sample so every cell faces the same judge.
func FrontierRace(w *corpus.World, budget int64, profiles []string, seeds []int64) ([]FrontierCell, string, error) {
	train, _ := LabeledDocs(w, 40, 0)
	cls, err := TrainOnLabeled(train, nil)
	if err != nil {
		return nil, "", err
	}
	var cells []FrontierCell
	for _, profile := range profiles {
		for _, seed := range seeds {
			for _, sched := range frontier.SchedulerNames() {
				cell, err := runFrontierCell(w, cls, frontierCellSpec{
					scheduler: sched, profile: profile, seed: seed, budget: budget,
				})
				if err != nil {
					return nil, "", err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, FormatFrontierRace(cells, budget), nil
}

// FormatFrontierRace renders the race as a markdown table: one row per
// scheduler × profile, one harvest-ratio column per seed, then the mean.
func FormatFrontierRace(cells []FrontierCell, budget int64) string {
	seedSet := map[int64]bool{}
	for _, c := range cells {
		seedSet[c.Seed] = true
	}
	seeds := make([]int64, 0, len(seedSet))
	for s := range seedSet {
		seeds = append(seeds, s)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	byKey := map[string]map[int64]FrontierCell{}
	var order []string
	for _, c := range cells {
		k := c.Scheduler + "|" + c.Profile
		if byKey[k] == nil {
			byKey[k] = map[int64]FrontierCell{}
			order = append(order, k)
		}
		byKey[k][c.Seed] = c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Harvest ratio (on-topic pages / pages fetched) at a %d-page budget:\n\n", budget)
	b.WriteString("| scheduler | profile |")
	for _, s := range seeds {
		fmt.Fprintf(&b, " seed %d |", s)
	}
	b.WriteString(" mean |\n")
	b.WriteString("|---|---|")
	for range seeds {
		b.WriteString("---|")
	}
	b.WriteString("---|\n")
	for _, k := range order {
		parts := strings.SplitN(k, "|", 2)
		fmt.Fprintf(&b, "| %s | %s |", parts[0], parts[1])
		var sum float64
		var n int
		for _, s := range seeds {
			if c, ok := byKey[k][s]; ok {
				fmt.Fprintf(&b, " %.3f |", c.Harvest)
				sum += c.Harvest
				n++
			} else {
				b.WriteString(" – |")
			}
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		fmt.Fprintf(&b, " %.3f |\n", mean)
	}
	return b.String()
}

// FrontierSpillReport contrasts an unbounded frontier with a budgeted one
// on the same crawl: the bounded run's in-memory high-water mark must sit
// at the budget while the unbounded one grows with the link frontier.
type FrontierSpillReport struct {
	FrontierBudget int
	PeakUnbounded  int
	PeakBounded    int
	SpilledPeak    int64
	HarvestDelta   float64 // bounded − unbounded
}

// FrontierSpillEvidence runs one scheduler fault-free twice — unbounded
// and with frontierBudget — and reports the memory contrast.
func FrontierSpillEvidence(w *corpus.World, scheduler string, pageBudget int64, frontierBudget int) (FrontierSpillReport, error) {
	train, _ := LabeledDocs(w, 40, 0)
	cls, err := TrainOnLabeled(train, nil)
	if err != nil {
		return FrontierSpillReport{}, err
	}
	free, err := runFrontierCell(w, cls, frontierCellSpec{
		scheduler: scheduler, profile: "off", budget: pageBudget,
	})
	if err != nil {
		return FrontierSpillReport{}, err
	}
	bounded, err := runFrontierCell(w, cls, frontierCellSpec{
		scheduler: scheduler, profile: "off", budget: pageBudget,
		spillBudget: frontierBudget,
	})
	if err != nil {
		return FrontierSpillReport{}, err
	}
	return FrontierSpillReport{
		FrontierBudget: frontierBudget,
		PeakUnbounded:  free.PeakInMemory,
		PeakBounded:    bounded.PeakInMemory,
		SpilledPeak:    bounded.SpilledPeak,
		HarvestDelta:   bounded.Harvest - free.Harvest,
	}, nil
}
