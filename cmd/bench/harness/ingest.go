package harness

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/stat"
	"github.com/bingo-search/bingo/internal/classify"
	"github.com/bingo-search/bingo/internal/core"
	"github.com/bingo-search/bingo/internal/corpus"
	"github.com/bingo-search/bingo/internal/crawler"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
	"github.com/bingo-search/bingo/internal/textproc"
)

// firstQueryText is the query that times "queryable": any query forces the
// first search snapshot over the whole corpus; this one has hits in every
// bench world (the primary topic's name).
const firstQueryText = "databases"

// crawlResult is what one full portal crawl into a tiered store measured.
type crawlResult struct {
	dir             string // scratch root; the store is in dir/store-0
	stored, visited int64
	errors          int64
	cpuS, wallS     float64 // bootstrap → learn → harvest → compaction idle
	queryableLagS   float64
	reopenS         float64
	writeAmp        float64
	diskBytes       int64    // data-directory bytes after close
	reg             registry // registry change from engine start to close
	reopenReg       registry // registry change over the reopen
	recovery        store.RecoveryStats
	urls            []string // what the store held before Close, sorted
	classifier      *classify.Classifier
}

// storeOptions are the tier options every benchmark store is opened with.
func storeOptions(sc Scale) store.TierOptions {
	return store.TierOptions{MemtableBudget: sc.MemtableBudget, WALSync: walSync, CompactFanout: compactFanout}
}

// crawl runs one portal crawl of w — fresh engine, fresh data directory,
// the real SVM ensemble and its retrains — into a tiered store, asks the
// first query, closes, reopens, asks the first query again and checks that
// nothing stored was lost. The oracles that read documents back run once,
// on the last crawl (ingestOracles).
func (r *run) crawl(ctx context.Context, w *corpus.World) (*crawlResult, error) {
	dir, err := r.scratch("ingest")
	if err != nil {
		return nil, err
	}
	storeDir := filepath.Join(dir, "store-0")
	cr := &crawlResult{dir: dir}
	before := readRegistry()
	root := r.rec.Begin("crawler.crawl", 0, 0)

	eng, err := newEngine(w, r.sc, crawlWorkers, storeDir)
	if err != nil {
		return nil, fmt.Errorf("ingest engine: %w", err)
	}
	c0, t0 := cpuSeconds(), time.Now()
	learn, harvest, err := r.runPhases(ctx, eng, root)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("ingest crawl: %w", err)
	}
	// The clock runs until compaction has finished what the crawl's freezes
	// queued: how much of that the background compactor gets done before
	// the last flush is a matter of timing, the total is not — and the
	// bytes on disk then do not depend on when Close interrupts it.
	id := r.rec.Begin("store.settle", root, 0)
	_, err = settleStore(eng.Store())
	r.rec.End(id)
	if err != nil {
		eng.Close()
		return nil, err
	}
	cr.cpuS, cr.wallS = cpuSeconds()-c0, time.Since(t0).Seconds()
	cr.stored = learn.StoredPages + harvest.StoredPages
	cr.visited = learn.VisitedURLs + harvest.VisitedURLs
	cr.errors = learn.Errors + harvest.Errors

	id = r.rec.Begin("search.first_query", root, 0)
	cr.queryableLagS = stat.Median(r.firstQueryLags(eng.Store(), eng.Search()))
	r.rec.End(id)

	cr.classifier = eng.Classifier()
	// The URLs the store holds before Close, from the slim rows (no text is
	// read back from segments inside the timed loop).
	for i := 0; i < eng.Store().NumShards(); i++ {
		for _, d := range eng.Store().ShardDocs(i) {
			cr.urls = append(cr.urls, d.URL)
		}
	}
	sort.Strings(cr.urls)
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("closing crawl store: %w", err)
	}
	cr.reg = readRegistry().since(before)

	segBytes, allBytes, err := diskUsage(storeDir)
	if err != nil {
		return nil, err
	}
	cr.writeAmp = ratio(cr.reg.c("wal_bytes_total")+float64(segBytes)+cr.reg.c("segment_compaction_bytes_read_total"), float64(segBytes))
	cr.diskBytes = allBytes

	// Restart; the last store stays open for the checks.
	var st *store.Store
	var reopens []float64
	for k := 0; k < r.samples(reopenSamples); k++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, fmt.Errorf("closing reopened store: %w", err)
			}
		}
		runtime.GC() // every sample starts from a collected heap
		beforeOpen := readRegistry()
		t2 := time.Now()
		id = r.rec.Begin("store.reopen", root, 0)
		st, err = store.OpenTiered(storeDir, r.sc.StoreShards, storeOptions(r.sc))
		r.rec.End(id)
		if err != nil {
			return nil, fmt.Errorf("reopening crawl store: %w", err)
		}
		hits := search.New(st).Search(search.Query{Text: firstQueryText})
		reopens = append(reopens, time.Since(t2).Seconds())
		cr.reopenReg = readRegistry().since(beforeOpen)
		cr.recovery = st.Recovery()
		r.check(len(hits) > 0, "first query %q after reopen returned nothing", firstQueryText)
	}
	defer st.Close()
	cr.reopenS = stat.Median(reopens)
	r.rec.End(root)

	r.ops(int(cr.visited), int(cr.errors), "page visits")
	missing := 0
	for _, u := range cr.urls {
		if !st.Contains(u) {
			missing++
		}
	}
	r.ops(len(cr.urls), missing, "stored URLs present after reopen")
	r.check(st.NumDocs() == len(cr.urls), "NumDocs after reopen = %d, want %d", st.NumDocs(), len(cr.urls))
	return cr, nil
}

// firstQueryLags times the first query over st — lagSamples times in a
// traced run, each through an engine that has no snapshot yet, the caller's
// own first — and returns the samples in seconds: how long the corpus takes
// to become queryable once it is durable. One sample of a 0.2 s operation
// is at the mercy of a single GC cycle; the median of five is not.
func (r *run) firstQueryLags(st *store.Store, first *search.Engine) []float64 {
	lags := make([]float64, 0, lagSamples)
	for k := 0; k < r.samples(lagSamples); k++ {
		se := first
		if k > 0 {
			se = search.New(st)
		}
		runtime.GC() // every sample starts from a collected heap
		t := time.Now()
		hits := se.Search(search.Query{Text: firstQueryText})
		lags = append(lags, time.Since(t).Seconds())
		r.check(len(hits) > 0, "first query %q returned nothing", firstQueryText)
	}
	return lags
}

// runPhases is core.Engine.Run with a benchmark-side span around each
// phase.
func (r *run) runPhases(ctx context.Context, eng *core.Engine, parent int) (learn, harvest crawler.Stats, err error) {
	id := r.rec.Begin("core.bootstrap", parent, 0)
	err = eng.Bootstrap(ctx)
	r.rec.End(id)
	if err != nil {
		return learn, harvest, err
	}
	id = r.rec.Begin("core.learn", parent, 0)
	learn, err = eng.Learn(ctx)
	r.rec.End(id)
	if err != nil {
		return learn, harvest, err
	}
	id = r.rec.Begin("core.harvest", parent, 0)
	harvest, err = eng.Harvest(ctx)
	r.rec.End(id)
	return learn, harvest, err
}

// ingestOracles runs, on the last crawl's reopened store, the checks that
// read documents back: every stored URL is returned by GetByURL, the portal
// found the authors the world says matter, and seeded documents are found
// by queries built from their own text. It returns the documents by URL.
func (r *run) ingestOracles(w *corpus.World, cr *crawlResult, st *store.Store, se *search.Engine) []store.Document {
	lost := 0
	docs := make([]store.Document, 0, len(cr.urls))
	for _, u := range cr.urls {
		d, err := st.GetByURL(u)
		if err != nil {
			lost++
			continue
		}
		docs = append(docs, d)
	}
	r.ops(len(cr.urls), lost, "stored URLs returned by GetByURL after reopen")

	eval := w.Evaluate(cr.urls, nil, r.sc.RecallTopN)
	recall := float64(eval.FoundTop) / float64(r.sc.RecallTopN)
	r.out.Info["ingest.recall_top_n"] = recall
	r.check(recall >= r.sc.RecallFloor, "top-%d author recall %.3f below the floor %.3f", r.sc.RecallTopN, recall, r.sc.RecallFloor)

	rng := rand.New(rand.NewSource(r.opt.Seed))
	pipe := textproc.NewPipeline()
	missed := 0
	n := min(r.sc.OracleQueries, len(docs))
	for _, di := range rng.Perm(len(docs))[:n] {
		d := docs[di]
		q := ownTextQuery(d, st, pipe)
		found := q == "" // a document with no indexable word cannot be asked for
		for _, h := range se.Search(search.Query{Text: q, Exact: true, Limit: 20}) {
			found = found || h.Doc.URL == d.URL
		}
		if !found {
			missed++
			r.logf("oracle: %s not found by its own words %q", d.URL, q)
		}
	}
	r.ops(n, missed, "own-text queries")
	return docs
}

// ownTextQuery builds the query a document must be found by: its five
// rarest distinct words (by document frequency, then alphabetically).
func ownTextQuery(d store.Document, st *store.Store, pipe *textproc.Pipeline) string {
	stop := textproc.DefaultStopwords()
	type cand struct {
		word string
		df   int
	}
	seen := map[string]bool{}
	var cands []cand
	for _, wd := range textproc.Words(d.Text) {
		wd = strings.ToLower(wd)
		if len(wd) < 3 || stop.Contains(wd) {
			continue
		}
		stems := pipe.Stems(wd)
		if len(stems) != 1 || seen[stems[0]] {
			continue
		}
		seen[stems[0]] = true
		cands = append(cands, cand{wd, st.DocFreq(stems[0])})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].df != cands[j].df {
			return cands[i].df < cands[j].df
		}
		return cands[i].word < cands[j].word
	})
	if len(cands) > 5 {
		cands = cands[:5]
	}
	words := make([]string, len(cands))
	for i, c := range cands {
		words[i] = c.word
	}
	return strings.Join(words, " ")
}

// ingestTiered is the closed-loop write-path workload: two back-to-back
// full portal crawls into the tiered store, however long they take, then
// the two /search windows over the last crawl's reopened store.
func (r *run) ingestTiered(ctx context.Context) error {
	var w *corpus.World
	for rep := 0; rep < r.sc.SetupReps; rep++ {
		t0 := time.Now()
		w = newWorld(r.sc, r.opt.Seed)
		r.sample("setup_s", time.Since(t0).Seconds())
	}
	r.logf("world: %d pages", w.NumPages())

	// Two back-to-back crawls; a traced run makes the second one the traced
	// repeat of the first (traceIngest).
	crawls := 2
	if r.opt.Trace {
		crawls = 1
	}
	var pages, cpuS, wallS float64
	var last *crawlResult
	rec := r.rec
	r.rec = nil // crawls in the loop are untraced
	for n := 0; n < crawls; n++ {
		if last != nil {
			r.discard(last.dir)
		}
		cr, err := r.crawl(ctx, w)
		if err != nil {
			return err
		}
		r.logf("crawl %d: stored %d visited %d errors %d in %.2fs wall %.2fs cpu; queryable +%.3fs; reopen %.3fs; write amp %.3f",
			n, cr.stored, cr.visited, cr.errors, cr.wallS, cr.cpuS, cr.queryableLagS, cr.reopenS, cr.writeAmp)
		pages += float64(cr.stored)
		cpuS += cr.cpuS
		wallS += cr.wallS
		r.sample("write_amp", cr.writeAmp)
		last = cr
	}
	r.rec = rec
	r.sample("pages_per_cpu_s", ratio(pages, cpuS))
	r.out.Info["build.pages_per_s"] = ratio(pages, wallS)
	r.out.Info["ingest.crawls"] = float64(crawls)
	r.out.Info["ingest.stored_last"] = float64(last.stored)
	r.out.Info["build.queryable_lag_s"] = last.queryableLagS
	r.out.Info["restart.reopen_s"] = last.reopenS

	if r.opt.Trace {
		if err := r.traceIngest(ctx, w, ratio(pages, cpuS), last); err != nil {
			return err
		}
	}
	return r.probe(ctx, w, last)
}

// probe serves the last crawl's store through the single-process stack and
// runs the two /search windows over it, so that ingest-tiered too says how
// fast the corpus it built answers queries.
func (r *run) probe(ctx context.Context, w *corpus.World, cr *crawlResult) error {
	s, err := openServing(ctx, r.sc, cr.dir, false, r.rec)
	if err != nil {
		return err
	}
	defer s.close()
	docs := r.ingestOracles(w, cr, s.stores[0], s.engine)
	var textBytes int64
	for _, d := range docs {
		textBytes += int64(len(d.Text))
	}
	r.sample("disk_bytes_per_text_byte", ratio(float64(cr.diskBytes), float64(textBytes)))
	rng := rand.New(rand.NewSource(r.opt.Seed))
	pool, warm := queryPools(docs, rng, r.sc)
	if len(pool) == 0 {
		return fmt.Errorf("crawl of %d documents gave no query pool", len(docs))
	}
	if err := r.warm(s, warm); err != nil {
		return err
	}
	total := r.budget()
	plan := windowPlan{rates: r.sc.Rates[IngestTiered], durA: total * 2 / 3, durB: total / 3}
	res, err := r.runWindows(ctx, s, &queryCursor{pool: pool}, plan)
	if err != nil {
		return err
	}
	r.reportWindows(plan, res)
	r.sample("peak_rss_mb", peakRSSMB())
	return nil
}
