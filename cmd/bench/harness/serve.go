package harness

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"github.com/bingo-search/bingo/cmd/bench/stat"
	"github.com/bingo-search/bingo/internal/search"
	"github.com/bingo-search/bingo/internal/store"
)

// buildResult is what turning the serving corpus into a queryable tiered
// store (or pair of shard servers) measured.
type buildResult struct {
	docs          int
	cpuS, wallS   float64 // delivering every document, until compaction is idle
	queryableLagS float64 // durable and settled → first /search answered
	writeAmp      float64
	diskPerText   float64
	reg           registry // registry change over delivery, first query and settling
}

// build delivers the corpus into s, waits for compaction to go idle, and
// asks the first query — for the sharded stack that includes the
// coordinator's stats and authority sync, which is what makes routed
// documents visible.
func (r *run) build(ctx context.Context, s *serving, c *servingCorpus) (buildResult, error) {
	b := buildResult{docs: len(c.docs)}
	before := readRegistry()
	c0, t0 := cpuSeconds(), time.Now()
	id := r.rec.Begin("store.ingest", 0, 0)
	err := s.ingest(ctx, c.docs, c.links)
	r.rec.End(id)
	if err != nil {
		return b, err
	}
	if _, err := s.settle(); err != nil {
		return b, err
	}
	b.cpuS, b.wallS = cpuSeconds()-c0, time.Since(t0).Seconds()

	runtime.GC() // as every sample of the first query does
	t1 := time.Now()
	id = r.rec.Begin("search.first_query", 0, 0)
	if s.sharded {
		if err := s.sync(ctx); err != nil {
			return b, err
		}
	}
	client := &http.Client{}
	status, reply, _, err := s.search(client, firstQueryText)
	client.CloseIdleConnections()
	r.rec.End(id)
	if err != nil {
		return b, fmt.Errorf("first query: %w", err)
	}
	lags := []float64{time.Since(t1).Seconds()}
	r.check(status == http.StatusOK && len(reply.Hits) > 0, "first query %q: status %d, %d hits", firstQueryText, status, len(reply.Hits))
	if !s.sharded && r.opt.Trace {
		// More samples of the same thing, each through an engine that has
		// no snapshot yet. (The sharded stack's partitions keep theirs; it
		// has the one sample.)
		lags = append(lags, r.firstQueryLags(s.stores[0], search.New(s.stores[0]))...)
	}
	b.queryableLagS = stat.Median(lags)
	b.reg = readRegistry().since(before)
	segBytes, allBytes, err := diskUsage(s.dirs...)
	if err != nil {
		return b, err
	}
	b.writeAmp = ratio(b.reg.c("wal_bytes_total")+float64(segBytes)+b.reg.c("segment_compaction_bytes_read_total"), float64(segBytes))
	b.diskPerText = ratio(float64(allBytes), float64(c.textBytes))
	return b, nil
}

// reopen restarts s — close, open the directories again, ask the first
// query; reopenSamples times in a traced run — and returns the last stack
// and the median seconds from OpenTiered to the answer: what restarting the
// server costs before it answers.
func (r *run) reopen(ctx context.Context, s *serving, root string) (*serving, float64, error) {
	var secs []float64
	for k := 0; k < r.samples(reopenSamples); k++ {
		if err := s.close(); err != nil {
			return nil, 0, fmt.Errorf("closing stores: %w", err)
		}
		runtime.GC() // every sample starts from a collected heap
		t0 := time.Now()
		id := r.rec.Begin("store.reopen", 0, 0)
		ns, err := openServing(ctx, r.sc, root, s.sharded, r.rec)
		r.rec.End(id)
		if err != nil {
			return nil, 0, err
		}
		s = ns
		client := &http.Client{}
		status, reply, _, err := s.search(client, firstQueryText)
		client.CloseIdleConnections()
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("first query after reopen: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		r.check(status == http.StatusOK && len(reply.Hits) > 0, "first query after reopen: status %d, %d hits", status, len(reply.Hits))
	}
	return s, stat.Median(secs), nil
}

// serve runs one of the three serve-* workloads: set-up (world, staging
// crawl, corpus delivered into tiered stores, compaction idle, warm-up)
// SetupReps times, the two open-loop windows against the last set-up, the
// oracle, and a restart.
func (r *run) serve(ctx context.Context) error {
	sharded := r.opt.Workload == ServeSharded
	churn := r.opt.Workload == ServeChurn
	var (
		s    *serving
		c    *servingCorpus
		root string
	)
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	for rep := 0; rep < r.sc.SetupReps; rep++ {
		if s != nil {
			s.close()
			s = nil
			r.discard(root)
		}
		t0 := time.Now()
		w := newWorld(r.sc, r.opt.Seed)
		var err error
		if c, err = buildServingCorpus(ctx, w, r.sc, r.opt.Seed); err != nil {
			return err
		}
		if root, err = r.scratch("serve"); err != nil {
			return err
		}
		if s, err = openServing(ctx, r.sc, root, sharded, r.rec); err != nil {
			return err
		}
		b, err := r.build(ctx, s, c)
		if err != nil {
			return err
		}
		if err := r.warm(s, c.warm); err != nil {
			return err
		}
		if churn {
			// serve-churn's stream lives on the head of the pool; "caches
			// filled" means the head has been asked once.
			if err := r.warm(s, c.pool[:zipfHead]); err != nil {
				return err
			}
		}
		setup := time.Since(t0).Seconds()
		r.sample("setup_s", setup)
		r.sample("pages_per_cpu_s", ratio(float64(b.docs), b.cpuS))
		r.out.Info["build.pages_per_s"] = ratio(float64(b.docs), b.wallS)
		r.out.Info["build.queryable_lag_s"] = b.queryableLagS
		r.sample("write_amp", b.writeAmp)
		r.sample("disk_bytes_per_text_byte", b.diskPerText)
		r.logf("set-up %d: %.2fs; staging stored %d visited %d; corpus %d docs + %d reserve, pool %d; build %.2fs wall %.2fs cpu; queryable +%.3fs; write amp %.3f",
			rep, setup, c.stored, c.visited, len(c.docs), len(c.reserve), len(c.pool), b.wallS, b.cpuS, b.queryableLagS, b.writeAmp)
		if r.opt.Trace {
			r.layerFromBuild(s, b)
		}
	}
	r.out.Info["staging.stored"] = float64(c.stored)
	r.out.Info["staging.visited"] = float64(c.visited)
	r.out.Info["corpus.docs"] = float64(len(c.docs))
	r.out.Info["corpus.pool"] = float64(len(c.pool))

	qc := &queryCursor{pool: c.pool}
	total := r.budget()
	plan := windowPlan{rates: r.sc.Rates[r.opt.Workload], durA: total * 2 / 3, durB: total / 3}
	if churn {
		// The Zipf stream owns the head of the pool; everything else
		// (oracle, replays) draws from behind it.
		qc.take(zipfHead)
	}
	var untracedQPC float64
	initialDocs, flushed := s.numDocs(), 0
	if r.opt.Trace {
		// The untraced reference first: same plan, recorder detached. Under
		// churn it gets the first half of the reserve.
		rec := r.rec
		r.rec = nil
		s.rec.Store(nil)
		if churn {
			plan.churn = newChurnWriter(s, c, r.sc, 0, r.sc.Flushes/2)
			flushed += plan.churn.flushes()
		}
		ref, err := r.runWindows(ctx, s, qc, plan)
		r.rec = rec
		s.rec.Store(rec)
		if err != nil {
			return err
		}
		untracedQPC = ref.qPerCPUSec()
	}
	if churn {
		plan.churn = newChurnWriter(s, c, r.sc, flushed, r.sc.Flushes)
		flushed += plan.churn.flushes()
	}
	res, err := r.runWindows(ctx, s, qc, plan)
	if err != nil {
		return err
	}
	r.reportWindows(plan, res)
	if r.opt.Trace {
		r.layer["bench.trace_overhead_share"] = 1 - ratio(res.qPerCPUSec(), untracedQPC)
	}
	r.sample("peak_rss_mb", peakRSSMB())

	if churn {
		cw := plan.churn
		if cw.err != nil {
			return cw.err
		}
		r.ops(cw.flushes(), cw.missing, "churn markers visible")
		want := initialDocs + flushed*r.sc.FlushDocs
		r.check(s.numDocs() == want, "NumDocs after churn = %d, want %d", s.numDocs(), want)
		r.check(res.a.Status5xx+res.b.Status5xx == 0, "%d responses were 5xx", res.a.Status5xx+res.b.Status5xx)
	}
	if err := r.serveOracle(s, c, qc); err != nil {
		return err
	}
	if r.opt.Trace {
		if err := r.traceServe(ctx, s, qc); err != nil {
			return err
		}
	}

	beforeOpen := readRegistry()
	wantDocs := s.numDocs()
	ns, secs, err := r.reopen(ctx, s, root)
	s = ns
	if err != nil {
		return err
	}
	r.out.Info["restart.reopen_s"] = secs
	r.check(s.numDocs() == wantDocs, "NumDocs after restart = %d, want %d", s.numDocs(), wantDocs)
	if r.opt.Trace {
		r.layer["bench.reopen_s"] = secs
		r.layerFromReopen(s.stores, readRegistry().since(beforeOpen))
	}
	return nil
}

// serveOracle compares OracleQueries seeded /search responses with the
// single-process engine asked directly: same URLs, same order, the same
// float64 bits in every score. For the single-process stack the engine is
// the one behind the API; for the sharded stack it is a reference engine
// over an in-memory store holding the same corpus, and no response may be
// degraded.
func (r *run) serveOracle(s *serving, c *servingCorpus, qc *queryCursor) error {
	ref := s.engine
	if s.sharded {
		st := store.NewSharded(r.sc.StoreShards)
		for _, d := range c.docs {
			st.Insert(d)
			for _, l := range c.links[d.URL] {
				st.AddLink(l)
			}
		}
		ref = search.New(st)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	n := r.sc.OracleQueries
	off := qc.take(n)
	wrong, degraded := 0, 0
	for i := 0; i < n; i++ {
		text := qc.at(off + i)
		status, reply, _, err := s.search(client, text)
		if err != nil {
			return fmt.Errorf("oracle query %q: %w", text, err)
		}
		want := ref.Search(search.Query{Text: text, Limit: 10})
		if status != http.StatusOK || !sameHits(want, reply.Hits) {
			wrong++
			r.logf("oracle: %q: status %d, %d hits, want %d", text, status, len(reply.Hits), len(want))
		}
		if reply.Degraded {
			degraded++
		}
	}
	r.ops(n, wrong, "responses equal to the direct engine")
	if s.sharded {
		r.ops(n, degraded, "responses not degraded")
	}
	return nil
}

// sameHits reports whether a /search hit list equals the engine's: same
// URLs in the same order and bit-identical floats.
func sameHits(want []search.Hit, got []hitJSON) bool {
	if len(want) != len(got) {
		return false
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i, w := range want {
		g := got[i]
		if w.Doc.URL != g.URL || !same(w.Score, g.Score) || !same(w.Cosine, g.Cosine) ||
			!same(w.Confidence, g.Confidence) || !same(w.Authority, g.Authority) {
			return false
		}
	}
	return true
}
